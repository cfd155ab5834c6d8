"""Retrieval quality metrics: AP, AR, F1 per query; MAP/MAR/MAF1/Top-k overall.

Precision and recall are sampled at each cutoff where a relevant image is
retrieved, then averaged over the query's relevant set; relevant images
absent from the ranking contribute zero. Aggregates are unweighted means
over queries. All arithmetic is plain Python floats accumulated in rank
order, so results are exactly reproducible.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QueryJudgment:
    """Ground truth for one query.

    ``relevant_ids`` is every image counted as relevant; ``correct_id`` is
    the single paired image used for Top-k accuracy and must be relevant.
    """

    query_id: str
    relevant_ids: frozenset
    correct_id: str

    def __post_init__(self):
        if not isinstance(self.query_id, str):
            raise TypeError(f"query_id must be a str, got {type(self.query_id).__name__}")
        if isinstance(self.relevant_ids, str):
            raise TypeError(f"query {self.query_id!r}: relevant_ids must be a set, not a str")
        ids = [self.correct_id, *self.relevant_ids]  # checked before hashing: a list is no id
        if not all(isinstance(i, str) for i in ids):
            raise TypeError(f"query {self.query_id!r}: relevant_ids and correct_id must be strings")
        object.__setattr__(self, "relevant_ids", frozenset(ids[1:]))
        if not self.relevant_ids:
            raise ValueError(f"query {self.query_id!r}: relevant_ids must be non-empty")
        if self.correct_id not in self.relevant_ids:
            raise ValueError(
                f"query {self.query_id!r}: correct_id {self.correct_id!r} "
                f"is not in relevant_ids"
            )


@dataclass
class MetricsReport:
    map: float
    mar: float
    maf1: float
    top1: float
    top5: float
    top10: float
    per_query: list

    def as_dict(self) -> dict:
        """The fields as a new dict; ``per_query`` holds a copy of each row."""
        out = dict(vars(self))
        out["per_query"] = [dict(row) for row in self.per_query]
        return out


def _ranks(ranked, relevant) -> dict:
    """1-based position of each relevant id found in a ranked list of unique ids."""
    if len(set(ranked)) != len(ranked):
        raise ValueError("ranked list contains duplicate ids")
    return {doc: pos for pos, doc in enumerate(ranked, start=1) if doc in relevant}


def _ap_ar(ranks, m):
    """AP and AR of one query from the ranks of its found relevant items, m relevant in all."""
    if m == 0:
        raise ValueError("relevant set must be non-empty")
    ap = ar = 0.0
    for hits, pos in enumerate(sorted(ranks.values()), start=1):
        ap += hits / pos
        ar += hits / m
    return ap / m, ar / m


def average_precision(ranked, relevant) -> float:
    """Mean of precision-at-cutoff over each relevant item found.

    >>> average_precision(["a", "b", "c"], {"a", "c"})   # (1/1 + 2/3) / 2
    0.8333333333333333
    """
    return _ap_ar(_ranks(ranked, relevant), len(relevant))[0]


def average_recall(ranked, relevant) -> float:
    """Mean of recall-at-cutoff over each relevant item found.

    >>> average_recall(["a", "b", "c"], {"a", "c"})   # (1/2 + 2/2) / 2
    0.75
    """
    return _ap_ar(_ranks(ranked, relevant), len(relevant))[1]


def f1_per_query(ap, ar) -> float:
    """Harmonic mean of a query's AP and AR; zero when both are zero."""
    for name, v in (("ap", ap), ("ar", ar)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if ap + ar == 0.0:
        return 0.0
    return 2.0 * (ap * ar) / (ap + ar)


def judgments_by_id(judgments) -> dict:
    """Index judgments by query id, rejecting duplicates."""
    by_id = {}
    for j in judgments:
        if j.query_id in by_id:
            raise ValueError(f"duplicate judgment for query {j.query_id!r}")
        by_id[j.query_id] = j
    return by_id


def metrics_from_ranks(judged) -> MetricsReport:
    """Score queries given as (judgment, ranks) pairs; per-query rows keep their order.

    ``ranks`` maps each relevant id that was ranked to its 1-based rank;
    relevant ids missing from it count as never retrieved. Top-k asks
    whether the correct id's rank is at most k.

    >>> j = QueryJudgment("q", frozenset({"a", "c"}), "c")
    >>> r = metrics_from_ranks([(j, {"a": 1, "c": 3})])
    >>> r.map, r.mar, r.top1, r.top5
    (0.8333333333333333, 0.75, 0.0, 1.0)
    """
    per_query = []
    for j, ranks in judged:
        ap, ar = _ap_ar(ranks, len(j.relevant_ids))
        correct = ranks.get(j.correct_id, math.inf)
        per_query.append(
            {
                "query_id": j.query_id,
                "ap": ap,
                "ar": ar,
                "f1": f1_per_query(ap, ar),
                "top1": int(correct <= 1),
                "top5": int(correct <= 5),
                "top10": int(correct <= 10),
            }
        )
    if not per_query:
        raise ValueError("no results to evaluate")
    q = len(per_query)
    return MetricsReport(
        map=sum(p["ap"] for p in per_query) / q,
        mar=sum(p["ar"] for p in per_query) / q,
        maf1=sum(p["f1"] for p in per_query) / q,
        top1=sum(p["top1"] for p in per_query) / q,
        top5=sum(p["top5"] for p in per_query) / q,
        top10=sum(p["top10"] for p in per_query) / q,
        per_query=per_query,
    )


_TABLE_COLUMNS = ("MAP", "MAR", "MAF1", "Top1", "Top5", "Top10")


def format_table(rows) -> str:
    """Fixed-width summary table, one row per (model, dataset) evaluation.

    ``rows`` are dicts with keys model, dataset, map, mar, maf1, top1,
    top5, top10; other keys are ignored.
    """
    model_w = max([len("Model")] + [len(str(r["model"])) for r in rows])
    ds_w = max([len("Dataset")] + [len(str(r["dataset"])) for r in rows])
    header = f"{'Model':<{model_w}}  {'Dataset':<{ds_w}}  " + "  ".join(
        f"{c:>6}" for c in _TABLE_COLUMNS
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        vals = (r["map"], r["mar"], r["maf1"], r["top1"], r["top5"], r["top10"])
        lines.append(
            f"{r['model']:<{model_w}}  {r['dataset']:<{ds_w}}  "
            + "  ".join(f"{v:>6.4f}" for v in vals)
        )
    return "\n".join(lines)
