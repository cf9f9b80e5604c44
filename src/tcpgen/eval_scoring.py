"""Word error rate and rare-word error rate with Levenshtein alignment,
plus the chapter-level exact sign test.

R-WER counts substitutions and deletions whose reference word is in the
biasing list, plus insertions whose hypothesis word is in the list; the
denominator is the number of reference tokens in the list.  Substitutions
where only the hypothesis side is a biasing word are tracked in a separate
diagnostic counter, not in R-WER.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class EditOp:
    kind: str                 # match | sub | del | ins
    ref: str | None
    hyp: str | None


def align(ref: list[str], hyp: list[str]) -> list[EditOp]:
    """Minimal edit alignment with deterministic backtrace preference
    match > sub > del > ins."""
    R, H = len(ref), len(hyp)
    cost = [[0] * (H + 1) for _ in range(R + 1)]
    for i in range(1, R + 1):
        cost[i][0] = i
    for j in range(1, H + 1):
        cost[0][j] = j
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            same = ref[i - 1] == hyp[j - 1]
            cost[i][j] = min(cost[i - 1][j - 1] + (0 if same else 1),
                             cost[i - 1][j] + 1,
                             cost[i][j - 1] + 1)
    ops: list[EditOp] = []
    i, j = R, H
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] \
                and cost[i][j] == cost[i - 1][j - 1]:
            ops.append(EditOp("match", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + 1:
            ops.append(EditOp("sub", ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            ops.append(EditOp("del", ref[i - 1], None))
            i = i - 1
        else:
            ops.append(EditOp("ins", None, hyp[j - 1]))
            j = j - 1
    ops.reverse()
    return ops


@dataclass
class ErrorCounts:
    sub: int = 0
    dele: int = 0
    ins: int = 0
    n_ref: int = 0

    @property
    def errors(self) -> int:
        return self.sub + self.dele + self.ins

    @property
    def rate(self) -> float:
        if self.n_ref == 0:
            raise ZeroDivisionError("no reference tokens")
        return self.errors / self.n_ref

    def add(self, other: "ErrorCounts") -> None:
        self.sub += other.sub
        self.dele += other.dele
        self.ins += other.ins
        self.n_ref += other.n_ref


def wer_counts(ops: list[EditOp]) -> ErrorCounts:
    c = ErrorCounts()
    for op in ops:
        if op.kind == "sub":
            c.sub += 1
        elif op.kind == "del":
            c.dele += 1
        elif op.kind == "ins":
            c.ins += 1
        if op.ref is not None:
            c.n_ref += 1
    return c


def compute_wer(alignments: list[list[EditOp]]) -> ErrorCounts:
    total = ErrorCounts()
    for ops in alignments:
        total.add(wer_counts(ops))
    if total.n_ref == 0:
        raise ValueError("empty reference set")
    return total


@dataclass
class RareErrorCounts:
    sub: int = 0
    dele: int = 0
    ins: int = 0
    n_bias: int = 0            # reference tokens in the biasing list
    hyp_only_subs: int = 0     # diagnostic: sub whose hyp word alone is biased

    @property
    def errors(self) -> int:
        return self.sub + self.dele + self.ins

    @property
    def rate(self) -> float | None:
        """May exceed 1.0 under heavy biasing-word insertion; None when the
        utterance set carries no biasing tokens."""
        if self.n_bias == 0:
            return None
        return self.errors / self.n_bias

    def add(self, other: "RareErrorCounts") -> None:
        self.sub += other.sub
        self.dele += other.dele
        self.ins += other.ins
        self.n_bias += other.n_bias
        self.hyp_only_subs += other.hyp_only_subs


def rwer_counts(ops: list[EditOp], biasing_words: set[str]) -> RareErrorCounts:
    c = RareErrorCounts()
    for op in ops:
        ref_in = op.ref in biasing_words if op.ref is not None else False
        hyp_in = op.hyp in biasing_words if op.hyp is not None else False
        if op.ref is not None and ref_in:
            c.n_bias += 1
        if op.kind == "sub":
            if ref_in:
                c.sub += 1
            elif hyp_in:
                c.hyp_only_subs += 1
        elif op.kind == "del" and ref_in:
            c.dele += 1
        elif op.kind == "ins" and hyp_in:
            c.ins += 1
    return c


def compute_rwer(alignments: dict[str, list[EditOp]],
                 lists: dict[str, set[str]]) -> RareErrorCounts:
    total = RareErrorCounts()
    for utt_id in sorted(alignments):
        total.add(rwer_counts(alignments[utt_id], lists[utt_id]))
    return total


@dataclass(frozen=True)
class SignTestResult:
    n_pos: int      # pairs where B improved on A (metric decreased)
    n_neg: int
    n_tie: int
    p_value: float | None   # None when every pair is tied


def sign_test(pairs: list[tuple[float, float]]) -> SignTestResult:
    """Exact two-sided binomial sign test on per-chapter metric pairs.

    Ties are excluded; p = 2 * P(X <= min(k, n-k)) under Binomial(n, 1/2),
    capped at 1.
    """
    pos = sum(1 for a, b in pairs if b < a)
    neg = sum(1 for a, b in pairs if b > a)
    tie = len(pairs) - pos - neg
    n = pos + neg
    if n == 0:
        return SignTestResult(pos, neg, tie, None)
    k = min(pos, neg)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / (2.0 ** n)
    return SignTestResult(pos, neg, tie, min(1.0, 2.0 * tail))


@dataclass
class ScoreReport:
    """Aggregate scores for one (system, list level) evaluation."""

    level: str
    wer: ErrorCounts
    rwer: RareErrorCounts
    per_chapter: dict[str, tuple[ErrorCounts, RareErrorCounts]] = field(default_factory=dict)
    coverage: float | None = None

    def rwer_label(self) -> str:
        return {"utterance": "R-WER_u", "chapter": "R-WER_c",
                "book": "R-WER_b"}[self.level]

    def render(self) -> str:
        lines = []
        lines.append(f"WER\t{self.wer.rate:.4f}")
        lines.append(f"  sub {self.wer.sub}  del {self.wer.dele}  "
                     f"ins {self.wer.ins}  ref {self.wer.n_ref}")
        r = self.rwer.rate
        lines.append(f"{self.rwer_label()}\t"
                     + (f"{r:.4f}" if r is not None else "no biasing tokens"))
        lines.append(f"  sub {self.rwer.sub}  del {self.rwer.dele}  "
                     f"ins {self.rwer.ins}  bias-ref {self.rwer.n_bias}  "
                     f"hyp-only-subs {self.rwer.hyp_only_subs}")
        if self.coverage is not None:
            lines.append(f"coverage\t{self.coverage:.4f}")
        if self.per_chapter:
            lines.append("chapter\tWER\t" + self.rwer_label())
            for chap in sorted(self.per_chapter):
                w, rw = self.per_chapter[chap]
                rr = rw.rate
                lines.append(f"  {chap}\t{w.rate:.4f}\t"
                             + (f"{rr:.4f}" if rr is not None else "-"))
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"

    def summary_line(self) -> str:
        r = self.rwer.rate
        cov = f"{self.coverage:.4f}" if self.coverage is not None else "-"
        return ("#summary\t" + "\t".join([
            self.level, f"{self.wer.rate:.4f}",
            f"{r:.4f}" if r is not None else "-",
            str(self.wer.errors), str(self.wer.n_ref),
            str(self.rwer.errors), str(self.rwer.n_bias), cov]))


def score_set(refs: dict[str, list[str]], hyps: dict[str, list[str]],
              lists: dict[str, set[str]], level: str,
              chapter_of: dict[str, str] | None = None,
              cov: float | None = None) -> ScoreReport:
    """Align every utterance and fold counts (utterance-id order)."""
    alignments = {u: align(refs[u], hyps.get(u, [])) for u in sorted(refs)}
    wer = compute_wer(list(alignments.values()))
    rwer = compute_rwer(alignments, lists)
    per_chapter: dict[str, tuple[ErrorCounts, RareErrorCounts]] = {}
    if chapter_of:
        for u in sorted(alignments):
            chap = chapter_of[u]
            if chap not in per_chapter:
                per_chapter[chap] = (ErrorCounts(), RareErrorCounts())
            per_chapter[chap][0].add(wer_counts(alignments[u]))
            per_chapter[chap][1].add(rwer_counts(alignments[u], lists[u]))
    return ScoreReport(level=level, wer=wer, rwer=rwer,
                       per_chapter=per_chapter, coverage=cov)
