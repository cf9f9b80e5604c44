"""The benchmark's workloads: set-up, timed operations and output checks.

Each workload drives the package's public API from one thread as a closed
loop: one client, and each operation starts when the previous one has
finished, as the CLI does.  The AED and RNN-T families take turns so that
each gets its share of the run.  An operation is one training epoch of a
family (`train`) or one utterance decoded by one system of a family
(`decode_utt`, `decode_biglist`); its time is one latency sample and its
outputs are checked.

Why these workloads:
- train: autodiff graph building and backward, transducer_loss, Adam.step
  and build_train_tree do nearly all of the work, and they do none in the
  decode workloads, which run under no_grad.
- decode_utt: beam bookkeeping, predictor_step, joint_rows, ToyAED.step and
  the pointer do the work; tree build is negligible with 50 distractors.
- decode_biglist: 5000-distractor lists make list and tree building
  (build_tree, tokenize_word) heavy and the root valid set large, while
  beam bookkeeping stays as in decode_utt.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import common
from tcpgen import biasing_lists, biasing_tree, decoding, eval_scoring, toy_models
from tcpgen.harness import checkpoint, corpus as corpus_mod, experiment
from tcpgen.rng import Stream, derive_seed

# train: one epoch of the biased variant of each family, from seeded init,
# on one of TRAIN_SLICES fixed length-balanced slices of the training set.
# A slice is two minibatches, so the epoch loss depends on the first
# batch's backward pass and Adam step, and the parameter update on both.
TRAIN_VARIANTS = {"aed": "tcpgen", "rnnt": "tcpgen_db"}
TRAIN_SLICES = 8
TRAIN_SLICE_UTTS = 16
TRAIN_LOSSES = os.path.join(common.MODELS_DIR, "train_losses.json")
# epoch loss and parameter-update norm vs the values recorded from the seed code
TRAIN_REL_TOL = 1e-6

# decode: the workload seed picks the utterance order and the distractors
LENGTH_BINS = 32      # length bins of the utterance order; a power of two
BIG_POOL_WORDS = 5100
BIG_POOL_SEED = 1009
CAL_REF_S = 1e-3      # speed-probe kernel time at the reference speed
CAL_WINDOW = 2        # speed samples either side of a unit that scale it
# The kernel speeds up more than the package does when the host is fast, so
# exponent 1 over-corrects.  0.8 was chosen from the wall-clock and kernel
# times of 20 earlier runs per workload and is fixed; the figures in
# bench/BASELINE.json come from later runs that played no part in it.
SPEED_EXPONENT = 0.8
TAIL_BEYOND = 10      # samples a tail percentile must have beyond it
# latency samples each family collects even past the time limit, so that
# the tail percentile is at least the median
MIN_SAMPLES = 2 * TAIL_BEYOND + 1


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = data
        self.parents = parents


class SpeedProbe:
    """Machine speed, sampled between units of work.

    On a shared host the speed of the same code drifts within and between
    runs (other tenants, clock changes) by more than the changes the
    benchmark must resolve: over ten seeds the wall-clock spreads reach
    0.37 of the median (bench/BASELINE.json, `wall`).  A fixed kernel shaped
    like the package's own work (small numpy operations wrapped in
    short-lived graph nodes, dict and tuple churn), but sharing no code
    with it, is timed before every unit of work.  It runs with the cyclic
    garbage collector off (its objects hold no cycles), so collections
    over a larger package heap do not slow it.  A unit's time is scaled by
    (CAL_REF_S / k) ** SPEED_EXPONENT, where k is the median kernel time
    of the samples around it; this gives its time at the reference speed,
    at which the kernel takes CAL_REF_S.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((32, 64)) / 8.0
        self._v = rng.standard_normal(64)
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        np, w, v = self._np, self._w, self._v
        table, keys = {}, []
        gc_was_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        for i in range(100):
            a = _Node(np.tanh(w @ v))
            b = _Node(a.data * 0.5, (a,))
            c = _Node(np.concatenate([b.data, a.data]), (a, b))
            table[i % 13, i % 7] = c
            keys.append(tuple(sorted((i % 5, i % 3, i % 11))))
            v = c.data
        self.samples.append(time.perf_counter() - t0)
        if gc_was_on:
            gc.enable()
        return len(self.samples) - 1

    def slowdown(self) -> float:
        """Median kernel time over the reference time."""
        return statistics.median(self.samples) / CAL_REF_S

    def scale(self, index: int) -> float:
        window = self.samples[max(0, index - CAL_WINDOW):index + CAL_WINDOW + 1]
        return (CAL_REF_S / statistics.median(window)) ** SPEED_EXPONENT


@dataclass
class Family:
    """One model family's part of a run."""
    share: float                 # of the run's time
    min_ops: int = MIN_SAMPLES   # operations run even past the time limit
    cycle: int = 1               # ...and until a multiple of this
    # per unit: (seconds, utterances, index of the speed sample before it)
    samples: list[tuple[float, int, int]] = field(default_factory=list)
    busy_s: float = 0.0          # time inside this family's operations
    ops: int = 0


class Workload:
    families: dict[str, Family]

    def __init__(self, seed: int, probe: SpeedProbe):
        self.seed = seed
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def setup(self) -> None:
        self.cfg = common.frozen_config("aed")
        self.corpus = corpus_mod.generate_corpus(self.cfg, self.cfg.seed)
        self.rare = experiment.rare_list_for(self.cfg, self.corpus)

    def op(self, family: str) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None) -> float:
        """Run operations for `seconds`, each time for the family furthest
        behind its share of the time, and then those a family still needs to
        reach its minimum and end a cycle.  Returns the loop's wall time."""
        fams = self.families
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            pending = [f for f in fams if fams[f].ops < fams[f].min_ops
                       or fams[f].ops % fams[f].cycle]
            if elapsed >= seconds and not pending:
                return elapsed
            choices = pending if elapsed >= seconds else list(fams)
            fam = min(choices, key=lambda f: (fams[f].busy_s / fams[f].share, f))
            with tracer.span(f"bench.{self.kind}.{fam}") if tracer else nullcontext():
                t0 = time.perf_counter()
                self._guarded(fam)
                fams[fam].busy_s += time.perf_counter() - t0
            fams[fam].ops += 1

    def _guarded(self, fam: str) -> None:
        try:
            self.op(fam)
        except Exception:   # an operation failing is counted, not fatal
            self.fail(f"{fam}: {traceback.format_exc(limit=3)}")


# -- train --------------------------------------------------------------

def train_slices(items, k: int, size: int):
    """k disjoint slices of `size` items with the same length mix: items
    ranked by length form `size` consecutive blocks, and from block b slice
    j takes the ((j + b) mod k)-th of k evenly spaced items."""
    ranked = sorted(items, key=lambda it: (len(it.features), len(it.targets),
                                           it.utt_id))
    n = len(ranked)
    slices = [[] for _ in range(k)]
    for b in range(size):
        block = ranked[b * n // size:(b + 1) * n // size]
        for j in range(k):
            slices[j].append(block[(j + b) % k * len(block) // k])
    return slices


class Train(Workload):
    kind = "train"

    def __init__(self, seed: int, probe: SpeedProbe):
        super().__init__(seed, probe)
        self.slice_index = seed % TRAIN_SLICES
        self.families = {f: Family(share=0.5) for f in TRAIN_VARIANTS}
        # per epoch run: (epoch loss, parameter-update norm)
        self.results: dict[str, list[tuple[float, float]]] = {
            f: [] for f in TRAIN_VARIANTS}

    def setup(self) -> None:
        self.setup_inputs()
        with open(TRAIN_LOSSES, encoding="utf-8") as f:
            recorded = json.load(f)
        if (recorded["slices"], recorded["slice_utts"]) != (TRAIN_SLICES,
                                                            TRAIN_SLICE_UTTS):
            raise common.BenchError(f"{TRAIN_LOSSES} records other slices")
        self.expected = {fam: (recorded["losses"][fam][self.slice_index],
                               recorded["update_norms"][fam][self.slice_index])
                         for fam in TRAIN_VARIANTS}

    def setup_inputs(self) -> None:
        super().setup()
        items = experiment.train_items(self.corpus)
        self.items = train_slices(items, TRAIN_SLICES,
                                  TRAIN_SLICE_UTTS)[self.slice_index]
        self.rare_set = self.rare.word_set()
        c = self.cfg
        self.tcfg = toy_models.TrainConfig(
            lr=c.lr, epochs=1, batch_size=c.batch_size, drop_rate=c.drop_rate,
            distractors=c.train_distractors, clip_norm=c.clip_norm)

    def epoch(self, fam: str) -> tuple[float, float, float]:
        """One epoch from seeded init: (epoch loss, L2 norm of the parameter
        update, seconds in train)."""
        variant = TRAIN_VARIANTS[fam]
        model = toy_models.build_model(
            self.corpus.vocab,
            experiment.model_config(common.frozen_config(fam), variant),
            Stream(derive_seed(common.CORPUS_SEED, "init", fam, variant)))
        init = toy_models.export_tensors(model)
        t0 = time.perf_counter()
        losses = toy_models.train(
            model, self.tcfg, self.items, self.rare_set,
            derive_seed(common.CORPUS_SEED, "train", fam, variant))
        dt = time.perf_counter() - t0
        if len(losses) != 1:
            raise ValueError(f"{len(losses)} epoch losses from one epoch")
        final = toy_models.export_tensors(model)
        update = math.sqrt(sum(float(((final[k] - init[k]) ** 2).sum())
                               for k in init))
        return losses[0], update, dt

    def op(self, fam: str) -> None:
        self.attempted += 1
        speed = self.probe.sample()
        loss, update, dt = self.epoch(fam)
        self.families[fam].samples.append((dt, len(self.items), speed))
        self.results[fam].append((loss, update))
        wrong = [f"{what} {got!r} != recorded {want!r}"
                 for what, got, want in zip(("epoch loss", "update norm"),
                                            (loss, update), self.expected[fam])
                 if not math.isfinite(got)
                 or abs(got - want) > TRAIN_REL_TOL * abs(want)]
        if wrong:
            self.fail(f"{fam}: {'; '.join(wrong)}")

    def outputs(self) -> dict:
        text = "".join(f"{fam}\t{self.results[fam][:1]!r}\n"
                       for fam in sorted(self.results))
        out = {"train.slice": self.slice_index,
               "train.rel_tol": TRAIN_REL_TOL}
        for fam, (loss, update) in self.expected.items():
            out[f"train.{fam}.epoch_loss"] = loss
            out[f"train.{fam}.update_norm"] = update
        out["digest"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return out


# -- decode -------------------------------------------------------------

def balanced_order(lengths: dict[str, int], seed: int) -> list[str]:
    """Every id once.  Ids ranked by length fill LENGTH_BINS bins, each
    shuffled by `seed`; the order takes one id per bin per round and visits
    the bins in bit-reversed order, so any prefix spreads evenly over the
    length range and the prefixes of any two seeds have nearly the same
    length profile while holding different utterances."""
    ranked = sorted(lengths, key=lambda u: (lengths[u], u))
    n = len(ranked)
    bins = [ranked[b * n // LENGTH_BINS:(b + 1) * n // LENGTH_BINS]
            for b in range(LENGTH_BINS)]
    for b, ids in enumerate(bins):
        Stream(derive_seed(seed, "order", "bin", b)).shuffle(ids)
    bits = LENGTH_BINS.bit_length() - 1
    visit = [int(format(b, f"0{bits}b")[::-1], 2) for b in range(LENGTH_BINS)]
    order = []
    for r in range(max(len(ids) for ids in bins)):
        order.extend(bins[b][r] for b in visit if r < len(bins[b]))
    return order


def big_pool(rare: biasing_lists.RareWordList) -> biasing_lists.RareWordList:
    """Rare words padded with segmentable pseudo-words to BIG_POOL_WORDS."""
    stream = Stream(BIG_POOL_SEED)
    syllables = list(corpus_mod.SYLLABLES)
    pool = set(rare.words)
    while len(pool) < BIG_POOL_WORDS:
        pool.add("".join(stream.choice(syllables)
                         for _ in range(2 + stream.randint(3))))
    return biasing_lists.RareWordList(tuple(sorted(pool)))


def load_frozen(vocab, family: str, variant: str):
    """Build a model and load its frozen checkpoint after checking its hash."""
    with open(common.manifest_path(family), encoding="utf-8") as f:
        manifest = json.load(f)
    name = f"{family}_{variant}.tcpg"
    path = os.path.join(common.CKPT_DIR, name)
    want = manifest["checkpoints"][name]["sha256"]
    got = common.sha256_file(path)
    if got != want:
        raise common.BenchError(f"{name}: SHA-256 {got} != manifest {want}")
    cfg = common.frozen_config(family)
    model = toy_models.build_model(
        vocab, experiment.model_config(cfg, variant),
        Stream(derive_seed(cfg.seed, "init", family, variant)))
    toy_models.load_tensors(model, checkpoint.load_checkpoint(path).tensors)
    return model


def check_nbest(hyps, n_lexical: int) -> str | None:
    """Why an n-best list is malformed, or None."""
    if not hyps:
        return "empty n-best"
    keys = [h.sort_key() for h in hyps]
    if keys != sorted(keys):
        return "n-best not ranked by Hypothesis.sort_key"
    for h in hyps:
        if not math.isfinite(h.log_score):
            return f"non-finite score {h.log_score}"
        if any(not 0 <= t < n_lexical for t in h.tokens):
            return f"non-lexical token in {h.tokens}"
    return None


class Decode(Workload):
    """Each operation decodes one utterance with one system: the family's
    systems decode each utterance of the seeded order in turn.  A family
    stops only after its last utterance has been through every system."""

    kind = "decode"

    def __init__(self, seed: int, probe: SpeedProbe,
                 systems: dict[str, tuple[str, ...]], distractors: int,
                 shares: dict[str, float], min_ops: dict[str, int]):
        super().__init__(seed, probe)
        self.systems = systems
        self.distractors = distractors
        self.families = {f: Family(share=shares[f], min_ops=min_ops[f],
                                   cycle=len(systems[f])) for f in systems}
        self.scored = min_ops
        # (family, variant) -> utt_id -> top-1 words
        self.top1: dict[tuple[str, str], dict[str, list[str]]] = {
            (f, v): {} for f, vs in systems.items() for v in vs}
        self.lists: dict[str, set[str]] = {}

    def setup(self) -> None:
        super().setup()
        vocab = self.corpus.vocab
        self.models = {(f, v): load_frozen(vocab, f, v)
                       for f, vs in self.systems.items() for v in vs}
        self.pool = (self.rare if self.distractors <= len(self.rare.words)
                     else big_pool(self.rare))
        self.order = balanced_order(
            {u: len(x) for u, x in self.corpus.test_feats.items()}, self.seed)
        c = self.cfg
        self.dcfg = decoding.DecodeConfig(
            beam=c.beam, lm_weight=c.lm_weight,
            max_symbols_per_frame=c.max_symbols_per_frame, max_len=c.max_len)

    def planned(self, fam: str, k: int) -> tuple[str, str]:
        """(utterance, system) of the family's k-th operation."""
        systems = self.systems[fam]
        return (self.order[k // len(systems) % len(self.order)],
                systems[k % len(systems)])

    def op(self, fam: str) -> None:
        utt, variant = self.planned(fam, self.families[fam].ops)
        self.attempted += 1
        words = self.corpus.test[utt]
        search = (decoding.beam_search_aed if fam == "aed"
                  else decoding.beam_search_rnnt)
        speed = self.probe.sample()
        t0 = time.perf_counter()
        tree = None
        if variant != "baseline":
            blist = biasing_lists.build_utterance_list(
                words, self.pool, self.distractors,
                Stream(derive_seed(self.seed, "list", utt)), utt)
            tree = biasing_tree.build_tree(self.corpus.vocab, blist.words)
        hyps = search(self.models[fam, variant], self.corpus.test_feats[utt],
                      tree, self.dcfg)
        self.families[fam].samples.append((time.perf_counter() - t0, 1, speed))
        problem = check_nbest(hyps, self.corpus.vocab.n_lexical)
        if problem:
            self.fail(f"{fam}_{variant} {utt}: {problem}")
            return
        top = decoding.hypothesis_words(self.corpus.vocab, hyps[0])
        if self.top1[fam, variant].setdefault(utt, top) != top:
            self.fail(f"{fam}_{variant} {utt}: output changed on repeat")
        if tree is not None:
            self.lists[utt] = blist.word_set()

    def outputs(self) -> dict:
        """WER/R-WER of each family's biased system over the utterances it
        decoded in the family's first min_ops operations (the same on every
        run of a seed), hypothesis/reference word ratio over every decode,
        and a digest of the scored top-1 transcripts."""
        out: dict = {}
        lines = []
        hyp_words = ref_words = 0
        for fam, variants in self.systems.items():
            for variant in variants:
                for u, words in self.top1[fam, variant].items():
                    hyp_words += len(words)
                    ref_words += len(self.corpus.test[u])
            biased = variants[-1]
            utts = sorted({u for u, v in (self.planned(fam, k)
                                          for k in range(self.scored[fam]))
                           if v == biased})
            hyps = {u: self.top1[fam, biased].get(u, []) for u in utts}
            lines += [f"{fam}_{biased}\t{u}\t{' '.join(hyps[u])}\n" for u in utts]
            report = eval_scoring.score_set(
                {u: self.corpus.test[u] for u in utts}, hyps,
                {u: self.lists.get(u, set()) for u in utts}, "utterance")
            out[f"wer.{fam}"] = report.wer.rate
            out[f"rwer.{fam}"] = report.rwer.rate
            out[f"scored.{fam}"] = len(utts)
        out["decoding.hyp_ref_word_ratio"] = hyp_words / max(ref_words, 1)
        out["decoding.ref_words"] = ref_words
        out["digest"] = hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
        return out


# An RNN-T decode costs about ten AED decodes, so RNN-T gets most of the
# time; min_ops fixes the scored utterances and enough RNN-T latency samples.
WORKLOADS = {
    "train": Train,
    "decode_utt": lambda seed, probe: Decode(
        seed, probe, {"aed": ("baseline", "tcpgen"), "rnnt": ("baseline", "tcpgen_db")},
        distractors=50, shares={"aed": 0.3, "rnnt": 0.7},
        min_ops={"aed": 60, "rnnt": 26}),
    "decode_biglist": lambda seed, probe: Decode(
        seed, probe, {"aed": ("tcpgen",), "rnnt": ("tcpgen_db",)},
        distractors=5000, shares={"aed": 0.3, "rnnt": 0.7},
        min_ops={"aed": 60, "rnnt": 33}),
}
