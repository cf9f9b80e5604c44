"""Benchmark of the tcpgen package: training and decoding, end to end and
layer by layer.

Run from the repository root:

    python3 bench/run.py --workload decode_utt --seed 1 --seconds 20 --trace 0

Workloads are `train`, `decode_utt` and `decode_biglist` (see
bench/workloads.py for what each runs and why).  Set-up (corpus
generation, rare-word list, frozen checkpoint load and check) runs
SETUP_REPEATS times, half before the timed loop and half after it, and
`setup_s` is the median.

Every time metric is given at a reference machine speed, because on shared
hosts the speed of the same code drifts within and between runs: each
operation is timed on the wall clock and scaled by the speed a fixed probe
kernel measured around it (see workloads.SpeedProbe).  A set-up lasts
seconds, and kernel samples taken back to back at its ends tracked its
speed no better than the wall clock alone, so the set-ups before the loop
are scaled by the samples of the first operations, which span seconds, and
those after it by the samples of the last.  The wall-clock figures are
printed too, prefixed `wall.`.

With `--trace 0` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with `--trace 1` the layer functions are wrapped in
spans and the metrics are per layer.  Lines before it give every number by
name and unit, and bench/out/ receives the full result (and, when tracing,
the raw spans).  The exit code is 0 when every output check passed, 1 when
one failed, and 2 when the benchmark cannot run (no package sources, bad
checkpoint).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402  (sets thread variables before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import spans  # noqa: E402

SETUP_REPEATS = 4   # half before the timed loop, half after it
OUT_DIR = os.path.join(common.HERE, "out")
FAMILIES = ("aed", "rnnt")


def tail(latencies: list[float], beyond: int) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least `beyond`
    samples above it; needs more than `beyond` samples."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot give a tail percentile")
    return lat[n - 1 - beyond], 100.0 * (n - beyond) / n


def family_metrics(fam: str, rec, probe, beyond: int) -> tuple[dict, dict]:
    """Throughput, median and tail latency of one family at the reference
    speed (metrics), and as measured on the wall clock (notes)."""
    metrics, notes = {}, {}
    for prefix, scale, out in (("", probe.scale, metrics),
                               ("wall.", lambda i: 1.0, notes)):
        lat = [s * scale(i) for s, _, i in rec.samples]
        value, pct = tail(lat, beyond)
        out[f"{prefix}{fam}.utt_per_s"] = (sum(n for _, n, _ in rec.samples) / sum(lat), "1/s")
        out[f"{prefix}{fam}.ms_p50"] = (1e3 * statistics.median(lat), "ms")
        out[f"{prefix}{fam}.ms_tail"] = (1e3 * value, "ms")
    notes[f"{fam}.ms_tail.percentile"] = round(pct, 2)
    notes[f"{fam}.samples"] = len(rec.samples)
    return metrics, notes


def set_up(make, seed: int, probe):
    """(workload, seconds its set-up took)."""
    t0 = time.perf_counter()
    wl = make(seed, probe)
    wl.setup()
    return wl, time.perf_counter() - t0


def end_to_end(wl, probe, beyond: int) -> tuple[dict, dict]:
    """(metrics, notes): value/unit records, and the numbers behind them;
    all but setup_s."""
    metrics = {"peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                               / 1024.0, "MB")}
    notes = {"slowdown_vs_reference": probe.slowdown()}
    for fam in FAMILIES:
        m, n = family_metrics(fam, wl.families[fam], probe, beyond)
        metrics.update(m)
        notes.update(n)
    return metrics, notes


def per_layer(tracer, wl, outputs: dict, wall_s: float) -> tuple[dict, dict]:
    """(metrics, notes) of a traced run: calls, total and self time per
    layer, the ratios with their bases, and the tracing overhead."""
    summary = tracer.summary()
    metrics = {}
    for name in spans.LAYER_NAMES:
        rec = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (rec["calls"], "count")
        metrics[f"{name}.total_s"] = (rec["total_s"], "s")
        metrics[f"{name}.self_s"] = (rec["self_s"], "s")

    def calls(root, name):
        return tracer.summary(root).get(name, {}).get("calls", 0)

    def mean(key):
        total, count = tracer.counters.get(key, (0.0, 0))
        return (total / count if count else 0.0), count

    aed_steps = calls("bench.decode.aed", "toy_models.ToyAED.step")
    aed_adv = calls("bench.decode.aed", "biasing_tree.advance_state")
    pred = calls("bench.decode.rnnt", "toy_models.ToyRNNT.predictor_step")
    frames = tracer.counters.get("decode.rnnt.encoded_frames", (0, 0))[0]
    dcfg = getattr(wl, "dcfg", None)
    slots = dcfg.beam * dcfg.max_symbols_per_frame * frames if dcfg else 0
    valid_mean, valid_calls = mean("valid_size")
    detach, adv_calls = mean("detach")
    n_spans = len(tracer.start)
    cost_s = spans.span_cost_s()
    metrics.update({
        "decoding.aed.cands_per_step": (aed_adv / aed_steps if aed_steps else 0.0, "ratio"),
        "decoding.rnnt.expansion_waste": (pred / slots if slots else 0.0, "ratio"),
        "decoding.rnnt.encoded_frames": (int(frames), "count"),
        "biasing_tree.valid_size_mean": (valid_mean, "count"),
        "biasing_tree.detach_rate": (detach, "ratio"),
        "decoding.hyp_ref_word_ratio": (outputs.get("decoding.hyp_ref_word_ratio", 0.0), "ratio"),
        "decoding.ref_words": (outputs.get("decoding.ref_words", 0), "count"),
        "trace.spans": (n_spans, "count"),
        "trace.overhead_frac": (n_spans * cost_s / wall_s, "ratio"),
    })
    notes = {
        "decoding.aed.cands_per_step.base": f"{aed_adv} advance_state / {aed_steps} ToyAED.step calls in AED decode",
        "decoding.rnnt.expansion_waste.base": f"{pred} predictor_step calls / ({slots} = beam x max_symbols_per_frame x {int(frames)} encoded frames)",
        "biasing_tree.valid_size_mean.base": f"{valid_calls} valid_set calls",
        "biasing_tree.detach_rate.base": f"{adv_calls} advance_state calls",
        "decoding.hyp_ref_word_ratio.base": f"{outputs.get('decoding.ref_words', 0)} reference words",
        "trace.span_cost_us": 1e6 * cost_s,
        "trace.wall_s": wall_s,
        "trace.missing_layers": tracer.missing,
    }
    for root in sorted({n for n in tracer.names if n.startswith("bench.")}):
        sub = tracer.summary(root)
        total = sub[root]["total_s"]
        top = sorted(sub.items(), key=lambda kv: -kv[1]["self_s"])[:6]
        notes[f"self_share.{root}"] = {k: round(v["self_s"] / total, 4) for k, v in top}
        notes[f"build_tree_share.{root}"] = round(
            sub.get("biasing_tree.build_tree", {}).get("total_s", 0.0) / total, 4)
    return metrics, notes


def trace_observers(tracer, biasing_tree) -> dict:
    detached = biasing_tree.DETACHED_STATE

    def valid_size(args, result):
        tracer.count("valid_size", len(result))

    def detach(args, result):
        tracer.count("detach", float(result == detached and args[1] != detached))

    def rnnt_frames(args, result):
        if tracer.current_root() == "bench.decode.rnnt":
            tracer.count("decode.rnnt.encoded_frames", result.data.shape[0])

    return {"biasing_tree.valid_set": valid_size,
            "biasing_tree.advance_state": detach,
            "toy_models.ToyRNNT.encode": rnnt_frames}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        common.add_src_path()
        import numpy
        import workloads
        from tcpgen import biasing_tree
        if args.workload not in workloads.WORKLOADS:
            raise common.BenchError(f"unknown workload {args.workload!r}; "
                                    f"choose from {sorted(workloads.WORKLOADS)}")
        probe = workloads.SpeedProbe()
        setup = []
        for _ in range(SETUP_REPEATS // 2):
            wl = None   # free the previous set-up's corpus first
            wl, seconds = set_up(workloads.WORKLOADS[args.workload], args.seed, probe)
            setup.append(seconds)
    except (common.BenchError, ImportError, OSError, KeyError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(trace_observers(tracer, biasing_tree))
    try:
        wall_s = wl.run(args.seconds, tracer)
        outputs = wl.outputs()
    finally:
        if tracer is not None:
            tracer.uninstall()

    metrics, notes = end_to_end(wl, probe, workloads.TAIL_BEYOND)
    # the other half of the set-ups, at the end of the run, so that the
    # median spans the run's changes in machine speed
    setup += [set_up(workloads.WORKLOADS[args.workload], args.seed, probe)[1]
              for _ in range(SETUP_REPEATS - len(setup))]
    # each half is scaled by the speed samples of the operations nearest it
    half = SETUP_REPEATS // 2
    early = probe.scale(workloads.CAL_WINDOW)
    late = probe.scale(len(probe.samples) - 1 - workloads.CAL_WINDOW)
    scaled = [s * early for s in setup[:half]] + [s * late for s in setup[half:]]
    metrics = {"setup_s": (statistics.median(scaled), "s"), **metrics}
    notes["wall.setup_s"] = (statistics.median(setup), "s")
    if tracer is not None:
        layer_metrics, layer_notes = per_layer(tracer, wl, outputs, wall_s)
        layer_metrics.update({f"trace.{fam}.utt_per_s": metrics[f"{fam}.utt_per_s"]
                              for fam in FAMILIES})
        notes.update(layer_notes)
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    fail_frac = wl.failed / max(wl.attempted, 1)

    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(f"fail_frac\t{fail_frac:.6g}\tratio\t({wl.failed} failed / {wl.attempted} attempted)")
    for name, value in {**outputs, **notes}.items():
        if isinstance(value, tuple):
            value = f"{value[0]:.6g}\t{value[1]}"
        print(f"{name}\t{value}")
    if tracer is not None:
        for name, (value, unit) in layer_metrics.items():
            print(f"{name}\t{value:.6g}\t{unit}")
    for err in wl.errors:
        print(f"failure: {err}", file=sys.stderr)

    reported = layer_metrics if tracer is not None else metrics
    result = {"correct": wl.failed == 0, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump({"env": env, **result, "end_to_end": metrics, "fail_frac": fail_frac,
                   "outputs": outputs, "notes": notes, "errors": wl.errors,
                   "samples": {f: [(t, n, probe.scale(i)) for t, n, i in rec.samples]
                               for f, rec in wl.families.items()},
                   "setup": setup, "speed_samples": probe.samples},
                  f, indent=2, sort_keys=True, default=str)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
    print(json.dumps(result))
    return 0 if wl.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
