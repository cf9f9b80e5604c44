"""End-to-end experiment orchestration: corpus, biasing lists, training,
decoding, scoring, and the cross-system comparison table.

All artifacts live under <out>/<config-hash>/ so distinct configurations
never collide; a rerun with the same config and seed reproduces every file
byte for byte.  Stage failures abort with the stage name; artifacts of
completed stages are retained.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .. import decoding
from ..biasing_lists import (BiasingList, RareWordList, build_book_list,
                             build_chapter_list, build_rare_word_list,
                             build_utterance_list, coverage, drop_unsegmentable,
                             format_list, parse_list)
from ..biasing_tree import build_tree
from ..eval_scoring import ScoreReport, score_set, sign_test
from ..lexicon import tokenize_sentence
from ..rng import Stream, derive_seed
from ..toy_models import (ModelConfig, TrainConfig, TrainItem, build_model,
                          export_tensors, load_tensors, train)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig
from .corpus import SyntheticCorpus, chapter_span, generate_corpus, load_corpus, write_corpus


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


@dataclass
class RunPaths:
    root: str

    @property
    def data(self): return os.path.join(self.root, "data")
    @property
    def lists(self): return os.path.join(self.root, "lists")
    @property
    def ckpt(self): return os.path.join(self.root, "ckpt")
    @property
    def nbest(self): return os.path.join(self.root, "nbest")
    @property
    def reports(self): return os.path.join(self.root, "reports")


def run_paths(cfg: ExperimentConfig, out_dir: str) -> RunPaths:
    return RunPaths(os.path.join(out_dir, cfg.run_hash()))


def _quiet(msg: str) -> None:
    pass


def stage_data(cfg: ExperimentConfig, paths: RunPaths, log=_quiet) -> SyntheticCorpus:
    """Load the configured corpus, generating it when absent."""
    try:
        data_dir = cfg.data_dir or paths.data
        if os.path.exists(os.path.join(data_dir, "vocab.txt")):
            log(f"data: loading corpus from {data_dir}")
            return load_corpus(data_dir)
        log(f"data: generating corpus into {data_dir} (seed {cfg.seed})")
        corpus = generate_corpus(cfg, cfg.seed)
        write_corpus(corpus, data_dir)
        return corpus
    except Exception as e:
        raise StageError("gen-data", e) from e


def rare_list_for(cfg: ExperimentConfig, corpus: SyntheticCorpus) -> RareWordList:
    rare = build_rare_word_list(
        (corpus.train[u] for u in sorted(corpus.train)),
        freq_threshold=cfg.rare_freq_threshold)
    ok, bad = drop_unsegmentable(corpus.vocab, rare.words)
    if bad:
        raise ValueError(f"unsegmentable rare words: {bad[:5]}")
    return RareWordList(tuple(sorted(ok)))


def train_frequencies(corpus: SyntheticCorpus) -> dict[str, int]:
    freq: dict[str, int] = {}
    for u in sorted(corpus.train):
        for w in corpus.train[u]:
            freq[w] = freq.get(w, 0) + 1
    return freq


def stage_lists(cfg: ExperimentConfig, corpus: SyntheticCorpus,
                paths: RunPaths, log=_quiet) -> dict[str, dict[str, BiasingList]]:
    """Build and write per-test-utterance biasing lists for every level."""
    try:
        rare = rare_list_for(cfg, corpus)
        freq = train_frequencies(corpus)
        out: dict[str, dict[str, BiasingList]] = {}
        for level in cfg.level_list():
            level_dir = os.path.join(paths.lists, level)
            os.makedirs(level_dir, exist_ok=True)
            lists: dict[str, BiasingList] = {}
            for utt_id in sorted(corpus.test):
                stream = Stream(derive_seed(cfg.seed, "list", level, utt_id))
                if level == "utterance":
                    bl = build_utterance_list(corpus.test[utt_id], rare,
                                              cfg.list_distractors, stream,
                                              source_id=utt_id)
                elif level == "chapter":
                    bl = build_chapter_list(corpus.book_lines,
                                            chapter_span(corpus, utt_id),
                                            rare, freq, stream,
                                            cap=cfg.list_cap,
                                            window=cfg.chapter_window,
                                            source_id=utt_id)
                else:
                    ix = corpus.index[utt_id]
                    bl = build_book_list(corpus.book_lines,
                                         (ix.start_line, ix.end_line),
                                         rare, freq, stream,
                                         cap=cfg.list_cap,
                                         window=cfg.book_window,
                                         source_id=utt_id)
                lists[utt_id] = bl
                with open(os.path.join(level_dir, f"{utt_id}.{level}.txt"),
                          "w", encoding="utf-8") as f:
                    f.write(format_list(bl))
            cov = coverage(corpus.test, lists)
            log(f"lists: {level}-level done, coverage {cov:.4f}")
            out[level] = lists
        return out
    except Exception as e:
        raise StageError("build-lists", e) from e


def load_lists(cfg: ExperimentConfig, corpus: SyntheticCorpus,
               paths: RunPaths) -> dict[str, dict[str, BiasingList]]:
    out: dict[str, dict[str, BiasingList]] = {}
    for level in cfg.level_list():
        lists = {}
        for utt_id in sorted(corpus.test):
            p = os.path.join(paths.lists, level, f"{utt_id}.{level}.txt")
            with open(p, "r", encoding="utf-8") as f:
                lists[utt_id] = parse_list(f.read(), level, utt_id)
        out[level] = lists
    return out


def train_items(corpus: SyntheticCorpus) -> list[TrainItem]:
    items = []
    for u in sorted(corpus.train):
        words = corpus.train[u]
        items.append(TrainItem(
            utt_id=u, features=corpus.train_feats[u],
            targets=tokenize_sentence(corpus.vocab, words).ids,
            ref_words=tuple(words)))
    return items


def model_config(cfg: ExperimentConfig, variant: str) -> ModelConfig:
    return ModelConfig(family=cfg.family, variant=variant,
                       feat_dim=cfg.corpus_feat_dim, hidden=cfg.hidden,
                       emb_dim=cfg.emb_dim, attn_dim=cfg.attn_dim,
                       attn_val_dim=cfg.attn_val_dim,
                       encoder_stride=cfg.encoder_stride)


def ckpt_path(cfg: ExperimentConfig, paths: RunPaths, variant: str) -> str:
    return os.path.join(paths.ckpt, f"{cfg.family}_{variant}.tcpg")


def stage_train(cfg: ExperimentConfig, corpus: SyntheticCorpus,
                paths: RunPaths, log=_quiet) -> dict[str, list[float]]:
    """Train every configured variant; returns per-variant epoch losses."""
    try:
        os.makedirs(paths.ckpt, exist_ok=True)
        items = train_items(corpus)
        rare = rare_list_for(cfg, corpus).word_set()
        tcfg = TrainConfig(lr=cfg.lr, epochs=cfg.epochs,
                           batch_size=cfg.batch_size, drop_rate=cfg.drop_rate,
                           distractors=cfg.train_distractors,
                           clip_norm=cfg.clip_norm)
        losses: dict[str, list[float]] = {}
        for variant in cfg.variant_list():
            t0 = time.time()
            model = build_model(corpus.vocab, model_config(cfg, variant),
                                Stream(derive_seed(cfg.seed, "init",
                                                   cfg.family, variant)))
            losses[variant] = train(
                model, tcfg, items, rare,
                derive_seed(cfg.seed, "train", cfg.family, variant),
                log=lambda m: log(f"train[{cfg.family}/{variant}] {m}"))
            save_checkpoint(export_tensors(model),
                            ckpt_path(cfg, paths, variant),
                            config_text=cfg.canonical_text())
            log(f"train: {cfg.family}/{variant} done in {time.time() - t0:.1f}s")
        return losses
    except Exception as e:
        raise StageError("train", e) from e


def load_model(cfg: ExperimentConfig, corpus: SyntheticCorpus,
               paths: RunPaths, variant: str):
    model = build_model(corpus.vocab, model_config(cfg, variant),
                        Stream(derive_seed(cfg.seed, "init", cfg.family, variant)))
    load_tensors(model, load_checkpoint(ckpt_path(cfg, paths, variant)).tensors)
    return model


def decode_test_set(cfg: ExperimentConfig, corpus: SyntheticCorpus, model,
                    lists: dict[str, BiasingList] | None,
                    lm: decoding.BigramLM | None) -> dict[str, list[decoding.Hypothesis]]:
    dcfg = decoding.DecodeConfig(beam=cfg.beam, lm_weight=cfg.lm_weight,
                                 max_symbols_per_frame=cfg.max_symbols_per_frame,
                                 max_len=cfg.max_len)
    search = (decoding.beam_search_aed if cfg.family == "aed"
              else decoding.beam_search_rnnt)
    out = {}
    for utt_id in sorted(corpus.test):
        tree = None
        if lists is not None:
            tree = build_tree(corpus.vocab, lists[utt_id].words)
        out[utt_id] = search(model, corpus.test_feats[utt_id], tree, dcfg, lm)
    return out


def nbest_path(paths: RunPaths, cfg: ExperimentConfig, variant: str,
               level: str) -> str:
    return os.path.join(paths.nbest, f"{cfg.family}_{variant}_{level}.tsv")


def stage_decode(cfg: ExperimentConfig, corpus: SyntheticCorpus,
                 all_lists: dict[str, dict[str, BiasingList]],
                 paths: RunPaths, log=_quiet) -> None:
    try:
        os.makedirs(paths.nbest, exist_ok=True)
        lm = None
        if cfg.lm_weight > 0:
            lm = decoding.train_bigram_lm(
                (tokenize_sentence(corpus.vocab, corpus.train[u]).ids
                 for u in sorted(corpus.train)), corpus.vocab)
        for variant in cfg.variant_list():
            model = load_model(cfg, corpus, paths, variant)
            if variant == "baseline":
                t0 = time.time()
                hyps = decode_test_set(cfg, corpus, model, None, lm)
                text = "".join(decoding.format_nbest(corpus.vocab, u, hyps[u])
                               for u in sorted(hyps))
                for level in cfg.level_list():
                    with open(nbest_path(paths, cfg, variant, level), "w",
                              encoding="utf-8") as f:
                        f.write(text)
                log(f"decode: {variant} done in {time.time() - t0:.1f}s")
            else:
                for level in cfg.level_list():
                    t0 = time.time()
                    hyps = decode_test_set(cfg, corpus, model,
                                           all_lists[level], lm)
                    with open(nbest_path(paths, cfg, variant, level), "w",
                              encoding="utf-8") as f:
                        for u in sorted(hyps):
                            f.write(decoding.format_nbest(corpus.vocab, u,
                                                          hyps[u]))
                    log(f"decode: {variant}/{level} done in "
                        f"{time.time() - t0:.1f}s")
    except Exception as e:
        raise StageError("decode", e) from e


def read_top1(path: str) -> dict[str, list[str]]:
    hyps: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            utt_id, rank, _, text = line.rstrip("\n").split("\t")
            if rank == "0":
                hyps[utt_id] = text.split()
    return hyps


@dataclass
class ExperimentResult:
    run_dir: str
    reports: dict[tuple[str, str], ScoreReport] = field(default_factory=dict)
    cov: dict[str, float] = field(default_factory=dict)
    losses: dict[str, list[float]] = field(default_factory=dict)
    sign: dict[tuple[str, str], object] = field(default_factory=dict)


def stage_score(cfg: ExperimentConfig, corpus: SyntheticCorpus,
                all_lists: dict[str, dict[str, BiasingList]],
                paths: RunPaths, log=_quiet) -> ExperimentResult:
    try:
        os.makedirs(paths.reports, exist_ok=True)
        result = ExperimentResult(run_dir=paths.root)
        chapter_of = {u: f"ch{corpus.index[u].chapter_id:03d}"
                      for u in corpus.test}
        for level in cfg.level_list():
            lists = all_lists[level]
            word_sets = {u: lists[u].word_set() for u in lists}
            cov = coverage(corpus.test, lists)
            result.cov[level] = cov
            for variant in cfg.variant_list():
                hyps = read_top1(nbest_path(paths, cfg, variant, level))
                report = score_set(corpus.test, hyps, word_sets, level,
                                   chapter_of=chapter_of, cov=cov)
                result.reports[(variant, level)] = report
                name = f"{cfg.family}_{variant}_{level}.txt"
                with open(os.path.join(paths.reports, name), "w",
                          encoding="utf-8") as f:
                    f.write(report.render())
                r = report.rwer.rate
                log(f"score: {variant}/{level} WER {report.wer.rate:.4f} "
                    + (f"{report.rwer_label()} {r:.4f}" if r is not None
                       else "(no biasing tokens)"))
        _sign_tests(cfg, result)
        table = comparison_table(cfg, result)
        with open(os.path.join(paths.reports, "comparison.txt"), "w",
                  encoding="utf-8") as f:
            f.write(table)
        return result
    except Exception as e:
        raise StageError("score", e) from e


def _chapter_rates(report: ScoreReport) -> dict[str, float]:
    out = {}
    for chap, (_, rw) in report.per_chapter.items():
        if rw.rate is not None:
            out[chap] = rw.rate
    return out


def _sign_tests(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    variants = cfg.variant_list()
    if "baseline" not in variants:
        return
    for level in cfg.level_list():
        base = _chapter_rates(result.reports[("baseline", level)])
        for variant in variants:
            if variant == "baseline":
                continue
            other = _chapter_rates(result.reports[(variant, level)])
            pairs = [(base[c], other[c]) for c in sorted(base) if c in other]
            result.sign[(variant, level)] = sign_test(pairs)


def comparison_table(cfg: ExperimentConfig, result: ExperimentResult) -> str:
    """WER with R-WER in brackets, one row per system, one column per level."""
    levels = cfg.level_list()
    lines = [f"family: {cfg.family}"]
    header = ["system".ljust(14)] + [lv.ljust(16) for lv in levels]
    lines.append("".join(header))
    for variant in cfg.variant_list():
        cells = [variant.ljust(14)]
        for level in levels:
            rep = result.reports[(variant, level)]
            r = rep.rwer.rate
            rr = f"{100 * r:.1f}" if r is not None else "-"
            cells.append(f"{100 * rep.wer.rate:.1f} ({rr})".ljust(16))
        lines.append("".join(cells))
    cells = ["coverage".ljust(14)]
    for level in levels:
        cells.append(f"{100 * result.cov[level]:.1f}%".ljust(16))
    lines.append("".join(cells))
    for (variant, level), st in sorted(result.sign.items()):
        p = "undefined (all ties)" if st.p_value is None else f"{st.p_value:.4f}"
        lines.append(f"sign-test R-WER {variant} vs baseline [{level}]: "
                     f"p = {p} (+{st.n_pos} -{st.n_neg} ={st.n_tie})")
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, out_dir: str,
                   log=_quiet) -> ExperimentResult:
    paths = run_paths(cfg, out_dir)
    os.makedirs(paths.root, exist_ok=True)
    with open(os.path.join(paths.root, "config.txt"), "w",
              encoding="utf-8") as f:
        f.write(cfg.canonical_text())
    corpus = stage_data(cfg, paths, log)
    lists = stage_lists(cfg, corpus, paths, log)
    losses = stage_train(cfg, corpus, paths, log)
    stage_decode(cfg, corpus, lists, paths, log)
    result = stage_score(cfg, corpus, lists, paths, log)
    result.losses = losses
    return result
