import numpy as np
import pytest

from oracles import evaluate_run, oracle_evaluate
from twotower.metrics import (
    MetricsReport,
    QueryJudgment,
    average_precision,
    average_recall,
    f1_per_query,
    format_table,
)
from twotower.retrieval import RankedResult


class TestAveragePrecision:
    def test_perfect_first_hit(self):
        assert average_precision(["a", "b", "c"], {"a"}) == 1.0

    def test_hand_case(self):
        assert average_precision(["a", "b", "c"], {"a", "c"}) == pytest.approx(0.83333, abs=5e-6)

    def test_total_miss(self):
        assert average_precision(["b", "c"], {"a"}) == 0.0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            average_precision(["a", "a"], {"a"})

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["a"], set())


class TestAverageRecall:
    def test_hand_case(self):
        assert average_recall(["a", "b", "c"], {"a", "c"}) == 0.75

    def test_full_containment(self):
        assert average_recall(["a"], {"a"}) == 1.0

    def test_none_retrieved(self):
        assert average_recall(["b", "c"], {"a"}) == 0.0


class TestF1:
    def test_perfect(self):
        assert f1_per_query(1.0, 1.0) == 1.0

    def test_hand_case(self):
        assert f1_per_query(0.8333333333333333, 0.75) == pytest.approx(0.78947, abs=5e-6)

    def test_guarded_zero(self):
        assert f1_per_query(0.0, 0.0) == 0.0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            f1_per_query(1.5, 0.5)


def top_k(ranked, correct_id, k):
    """Per-query Top-k of a one-query run whose relevant set is {correct_id}."""
    j = QueryJudgment("q", frozenset({correct_id}), correct_id)
    return evaluate_run([result("q", ranked)], [j]).per_query[0][f"top{k}"]


class TestTopkHit:
    def test_rank1_k1(self):
        assert top_k(["a", "b"], "a", 1) == 1

    def test_rank6_k5(self):
        ranked = ["x1", "x2", "x3", "x4", "x5", "a"]
        assert top_k(ranked, "a", 5) == 0

    def test_boundary_rank5_k5(self):
        ranked = ["x1", "x2", "x3", "x4", "a"]
        assert top_k(ranked, "a", 5) == 1

    def test_absent_is_a_miss(self):
        assert top_k(["x1", "x2"], "a", 10) == 0


def result(qid, ranked):
    return RankedResult(query_id=qid, hits=[(doc, 0.0) for doc in ranked], k=len(ranked))


class TestEvaluateRun:
    def test_mean_of_two_queries(self):
        results = [result("q1", ["a", "b", "c"]), result("q2", ["a", "b", "c"])]
        judgments = [
            QueryJudgment("q1", frozenset({"a"}), "a"),
            QueryJudgment("q2", frozenset({"a", "c"}), "a"),
        ]
        report = evaluate_run(results, judgments)
        assert report.map == pytest.approx(0.91667, abs=5e-6)

    def test_all_perfect(self):
        results = [result(f"q{i}", [f"im{i}", "other"]) for i in range(4)]
        judgments = [QueryJudgment(f"q{i}", frozenset({f"im{i}"}), f"im{i}") for i in range(4)]
        report = evaluate_run(results, judgments)
        assert (report.map, report.mar, report.maf1, report.top1) == (1.0, 1.0, 1.0, 1.0)

    def test_judgment_order_irrelevant(self):
        results = [result("q1", ["a"]), result("q2", ["b"])]
        judgments = [
            QueryJudgment("q2", frozenset({"b"}), "b"),
            QueryJudgment("q1", frozenset({"a"}), "a"),
        ]
        report = evaluate_run(results, judgments)
        assert [p["query_id"] for p in report.per_query] == ["q1", "q2"]

    def test_unmatched_result(self):
        with pytest.raises(ValueError, match="no judgment"):
            evaluate_run([result("q1", ["a"])], [QueryJudgment("q2", frozenset({"a"}), "a")])

    def test_unmatched_judgment(self):
        with pytest.raises(ValueError, match="no result"):
            evaluate_run(
                [result("q1", ["a"])],
                [
                    QueryJudgment("q1", frozenset({"a"}), "a"),
                    QueryJudgment("q2", frozenset({"a"}), "a"),
                ],
            )

    def test_duplicate_judgments(self):
        with pytest.raises(ValueError, match="duplicate judgment"):
            evaluate_run(
                [result("q1", ["a"])],
                [QueryJudgment("q1", frozenset({"a"}), "a")] * 2,
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_run([], [])

    def test_aggregates_equal_mean_of_per_query(self):
        rng = np.random.default_rng(0)
        results, judgments = random_instance(rng)
        report = evaluate_run(results, judgments)
        for key in ("ap", "ar", "f1", "top1", "top5", "top10"):
            agg = sum(p[key] for p in report.per_query) / len(report.per_query)
            name = {"ap": "map", "ar": "mar", "f1": "maf1"}.get(key, key)
            assert getattr(report, name) == pytest.approx(agg, abs=1e-12)


def random_instance(rng, max_queries=20, max_index=30):
    n_index = int(rng.integers(2, max_index + 1))
    index_ids = [f"im{i}" for i in range(n_index)]
    n_q = int(rng.integers(1, max_queries + 1))
    results, judgments = [], []
    for qi in range(n_q):
        ranked = list(rng.permutation(index_ids))
        if rng.random() < 0.3:  # sometimes truncate: relevant items may be absent
            ranked = ranked[: int(rng.integers(1, n_index + 1))]
        m = int(rng.integers(1, min(5, n_index) + 1))
        relevant = list(rng.choice(index_ids, size=m, replace=False))
        results.append(result(f"q{qi}", ranked))
        judgments.append(
            QueryJudgment(f"q{qi}", frozenset(relevant), str(rng.choice(relevant)))
        )
    return results, judgments


class TestOracleEquivalence:
    def test_exact_match_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            results, judgments = random_instance(rng)
            report = evaluate_run(results, judgments)
            agg, per = oracle_evaluate(results, judgments)
            assert report.map == agg["ap"]
            assert report.mar == agg["ar"]
            assert report.maf1 == agg["f1"]
            assert (report.top1, report.top5, report.top10) == (
                agg["top1"],
                agg["top5"],
                agg["top10"],
            )
            for mine, theirs in zip(report.per_query, per):
                assert mine == theirs


class TestMetricProperties:
    def test_ranges_and_topk_monotonicity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            results, judgments = random_instance(rng)
            r = evaluate_run(results, judgments)
            for v in (r.map, r.mar, r.maf1, r.top1, r.top5, r.top10):
                assert 0.0 <= v <= 1.0
            assert r.top1 <= r.top5 <= r.top10

    def test_f1_never_exceeds_max_of_ap_ar(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            results, judgments = random_instance(rng)
            for p in evaluate_run(results, judgments).per_query:
                assert p["f1"] <= max(p["ap"], p["ar"]) + 1e-12

    def test_ap_ar_invariant_to_tail_after_last_relevant(self):
        relevant = {"a", "b"}
        base = ["a", "x", "b", "t1", "t2", "t3"]
        swapped = ["a", "x", "b", "t3", "t1", "t2"]
        assert average_precision(base, relevant) == average_precision(swapped, relevant)
        assert average_recall(base, relevant) == average_recall(swapped, relevant)


class TestQueryJudgmentValidation:
    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            QueryJudgment("q", frozenset(), "a")

    def test_correct_must_be_relevant(self):
        with pytest.raises(ValueError, match="not in relevant"):
            QueryJudgment("q", frozenset({"a"}), "b")

    def test_str_relevant_ids_rejected(self):
        # a str would otherwise become the set of its characters
        with pytest.raises(TypeError, match="not a str"):
            QueryJudgment("q", "abc", "a")

    def test_query_id_must_be_str(self):
        with pytest.raises(TypeError, match="query_id must be a str"):
            QueryJudgment(["q"], frozenset({"a"}), "a")


class TestFormatTable:
    def test_columns_present(self):
        row = {
            "model": "heads-32",
            "dataset": "synth-a",
            "map": 0.9,
            "mar": 0.8,
            "maf1": 0.85,
            "top1": 0.7,
            "top5": 0.95,
            "top10": 1.0,
        }
        text = format_table([row])
        lines = text.splitlines()
        for col in ("Model", "Dataset", "MAP", "MAR", "MAF1", "Top1", "Top5", "Top10"):
            assert col in lines[0]
        assert "heads-32" in lines[2]
        assert "0.9000" in lines[2]

    def test_report_as_dict_shape(self):
        report = MetricsReport(
            map=1.0, mar=1.0, maf1=1.0, top1=1.0, top5=1.0, top10=1.0, per_query=[]
        )
        d = report.as_dict()
        assert set(d) == {"map", "mar", "maf1", "top1", "top5", "top10", "per_query"}
