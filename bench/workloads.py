"""The workloads, each a complete user session driven in process.

Every workload writes its inputs, runs the CLI stages through
``twotower.cli.main`` and online queries through ``twotower.query``, and
reports every end-to-end metric. After one set-up, the measured phase
runs in rounds: one unit of the workload's focus stage, then one small
slice of each other stage, the set-up among them. Rounds repeat until the
time budget is spent, so every metric is sampled across the whole run
rather than in one burst, which matters on machines whose speed drifts
over seconds. Rates are the median over units, latency percentiles pool
every call, and ``setup_s`` is the median repeat. Output checks run
outside every timed operation and feed the count of failed operations.

With tracing on, the second half of the rounds runs under wrappers
installed around the package's functions (see ``harness.Patches``); the
first half runs untraced, and the ratio of the focus unit's median rates
in the two halves is the tracing overhead.
"""

import contextlib
import io
import json
import math
import random
import resource
import statistics
import time
from pathlib import Path

import harness
import inputs
import oracle

# Layers timed in a traced run, as <module>.<function> under the package.
LAYERS = (
    "data.load_manifest",
    "data.load_embeddings",
    "data.build_pairs",
    "data.make_batches",
    "data.EmbeddingStore.rows",
    "linalg.l2_normalize_rows",
    "loss.loss_backward",
    "loss.contrastive_loss",
    "model.project",
    "model.save_checkpoint",
    "model.load_checkpoint",
    "model.model_fingerprint",
    "train.train",
    "train.adamw_step",
    "train.evaluate_loss",
    "retrieval.build_index",
    "retrieval.save_index",
    "retrieval.load_index",
    "retrieval.query",
    "retrieval.batch_query",
    "metrics.evaluate_run",
    "cli.main",
)

# Operation kinds; a traced run reports each one's wall time as trace.wall.<kind>_s.
KINDS = ("setup", "train", "eval", "query", "cli_query")

SETUP_MIN_REPEATS = 7
QUERY_K = 10
MIN_QUERY_SAMPLES = 1000   # p95 then has fifty samples beyond it
QUERY_SLICE = 400          # library queries per round
CLI_SLICE = 20             # CLI queries per round
CHECKED_QUERIES = 50
CHECKED_EVAL_ROWS = 100
BATCH_SIZE = 64            # the default train config
EPOCHS = 30                # the default train config
NOISE_2K = 0.8             # feature noise of the 2000-image data: quality is not saturated


def _hits_hook(args, result):
    results = result if isinstance(result, list) else [result]
    return {"retrieval.hits_returned": sum(len(r.hits) for r in results),
            "retrieval.queries_scored": len(results)}


def _loss_flops_hook(args, result):
    """Multiply-adds of one loss_backward call, counted as 2 flops each.

    Forward: two projections and the B x B logits. Backward: the two
    logit-gradient products and the two weight-gradient products.
    """
    img, txt, model = args[0], args[1], args[2]
    b, d_img = img.shape
    d_txt = txt.shape[1]
    d = model.shared_dim
    return {"loss.step_flops": 4 * b * (d_img + d_txt) * d + 6 * b * b * d}


HOOKS = {
    "retrieval.query": _hits_hook,
    "retrieval.batch_query": _hits_hook,
    "loss.loss_backward": _loss_flops_hook,
}


class Session:
    """One benchmark run: the package, its work directory, samples and counts."""

    def __init__(self, tt, work, seed, seconds, trace):
        self.tt = tt
        self.work = Path(work)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops = harness.OpCounter()
        self.rng = random.Random(seed)
        self.metrics = {}
        self.info = {}
        self.samples = {}  # kind -> [(traced, seconds, items of work)]
        self.tracer = harness.Tracer() if trace else None
        self.absent = []
        self.walls = dict.fromkeys(KINDS, 0.0)  # traced operations only
        self.focus_kind = None
        self._tracing = False

    # -- operations ---------------------------------------------------------

    def cli(self, kind, *argv):
        """Run one CLI command in process; return (ok, seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ok, code = self.ops.call(kind, self.tt.cli.main, [str(a) for a in argv])
        elapsed = time.perf_counter() - start
        if self._tracing:
            self.walls[kind] += elapsed
        if ok and code != 0:
            self.ops.refused(kind, f"exit {code}: {err.getvalue().strip()[:300]}")
            ok = False
        return ok, elapsed, out.getvalue()

    def call(self, kind, fn, *args):
        """Run one library call; return (ok, seconds, result)."""
        start = time.perf_counter()
        ok, result = self.ops.call(kind, fn, *args)
        elapsed = time.perf_counter() - start
        if self._tracing:
            self.walls[kind] += elapsed
        return ok, elapsed, result

    def check(self, what, reason):
        """Record an output check; a reason means the checked operation was wrong."""
        if reason:
            self.ops.refused(what, reason)

    def sample(self, kind, seconds, items=1):
        self.samples.setdefault(kind, []).append((self._tracing, seconds, items))

    # -- phases -------------------------------------------------------------

    @contextlib.contextmanager
    def traced(self):
        """Trace the enclosed operations when this is a traced run."""
        if not self.trace:
            yield
            return
        patches = harness.Patches(self.tracer, self.tt, LAYERS, HOOKS)
        self._tracing = True
        try:
            with patches:
                yield
        finally:
            self._tracing = False
        self.absent = patches.absent

    def rounds(self, focus, *slices):
        """The measured phase: ``focus`` then each slice, until the budget is spent.

        Each callable runs one unit and returns False when its operation
        failed, which ends the phase. A traced run spends the first half of
        the budget untraced and the second half traced.
        """
        def run(budget):
            start = time.perf_counter()
            n = 0
            while True:
                if not all(unit() for unit in (focus, *slices)):
                    return False
                n += 1
                elapsed = time.perf_counter() - start
                if elapsed * (n + 1) / n > budget:
                    return True

        if not self.trace:
            run(self.seconds)
        elif run(self.seconds / 2):
            with self.traced():
                run(self.seconds / 2)

    def peak_rss(self):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.metrics["peak_rss_mb"] = (kb / 1024.0, "MB")

    # -- metrics --------------------------------------------------------------

    def rates(self, kind, traced=False):
        return [n / s for t, s, n in self.samples.get(kind, []) if t == traced]

    def rate_metric(self, name, kind, unit):
        """The median rate over the untraced units of ``kind``."""
        rates = self.rates(kind)
        if rates:
            self.metrics[name] = (statistics.median(rates), unit)
            self.info.setdefault("rates", {})[name] = rates

    def latency_metrics(self, name, kind, qs):
        """``<name>_p<q>`` for each percentile ``q`` in ``qs``, over every untraced call of ``kind``."""
        times = [s / n for t, s, n in self.samples.get(kind, []) if not t]
        for q in qs:
            value = harness.percentile(times, q)
            if value is not None:
                self.metrics[f"{name}_p{q}"] = (value * 1e3, "ms")
        self.info.setdefault("latencies_ms", {})[name] = [round(x * 1e3, 4) for x in times]

    def setup_metric(self):
        times = [s for t, s, _ in self.samples.get("setup", []) if not t]
        if times:
            self.metrics["setup_s"] = (statistics.median(times), "s")

    def quality(self, values):
        for key in ("map", "top1", "top10"):
            self.metrics[key] = (values[key], "frac")

    def layer_metrics(self, focus_kind):
        t = self.tracer or harness.Tracer()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (t.calls.get(layer, 0), "count")
            out[f"{layer}.self_s"] = (t.self_s.get(layer, 0.0), "s")
        n, d = self.info["index_rows"], self.info["shared_dim"]
        score_flops = 2 * d * n * t.counts.get("retrieval.queries_scored", 0)
        score_s = t.self_s.get("retrieval.query", 0.0) + t.self_s.get("retrieval.batch_query", 0.0)
        step_flops = t.counts.get("loss.step_flops", 0)
        loss_s = t.self_s.get("loss.loss_backward", 0.0)
        plain, traced = self.rates(focus_kind), self.rates(focus_kind, traced=True)
        overhead = (statistics.median(plain) / statistics.median(traced) - 1
                    if plain and traced else 0.0)
        out.update({
            "retrieval.hits_returned": (t.counts.get("retrieval.hits_returned", 0), "count"),
            "retrieval.score_flops": (score_flops, "flop-computed"),
            "retrieval.score_gflop_per_s": (score_flops / score_s / 1e9 if score_s else 0.0, "GFLOP/s"),
            "loss.step_flops": (step_flops, "flop-computed"),
            "loss.gflop_per_s": (step_flops / loss_s / 1e9 if loss_s else 0.0, "GFLOP/s"),
            "trace_overhead_frac": (overhead, "frac"),
            "trace.self_sum_s": (t.self_sum(), "s"),
            "trace.absent_layers": (len(self.absent), "count"),
        })
        for kind in KINDS:
            out[f"trace.wall.{kind}_s"] = (self.walls[kind], "s")
        return out


# -- units of work --------------------------------------------------------------


class Setup:
    """One repeat of the set-up stage; ``unit`` returns its seconds, or None on failure."""

    def __init__(self, s, unit):
        self.s = s
        self.unit = unit

    def __call__(self):
        elapsed = self.unit()
        if elapsed is None:
            return False
        self.s.sample("setup", elapsed)
        return True


class Train:
    """CLI ``train`` on one dataset; every run is checked as it finishes.

    Repeats must reproduce the first checkpoint byte for byte. Runs of the
    default length must also end below the first epoch's validation loss.
    The package's own loader is tried on the checkpoint after the measured
    phase, so that a traced run does not count it as work of the stage.
    """

    def __init__(self, s, ds, name, epochs, pairs):
        self.s = s
        self.ckpt = s.work / f"{name}.ckpt"
        self.report = s.work / f"{name}.json"
        self.log = s.work / f"{name}.jsonl"
        self.steps = epochs * (pairs // BATCH_SIZE)
        self.full = epochs == EPOCHS
        self.argv = ("train", "--manifest", ds / "manifest.jsonl", "--images", ds / "images.emb",
                     "--texts", ds / "texts.emb", "--checkpoint", self.ckpt,
                     "--report", self.report, "--log", self.log, "--set", f"train.epochs={epochs}")
        self.first = None

    def __call__(self):
        ok, elapsed, _ = self.s.cli("train", *self.argv)
        if not ok:
            return False
        self.s.sample("train", elapsed, self.steps)
        reason = check_train(self.ckpt, self.report, self.log, self.steps, self.full)
        data = self.ckpt.read_bytes()
        if reason is None and self.first is not None and data != self.first:
            reason = "checkpoint bytes differ between repeats of the same run"
        self.first = self.first or data
        self.s.check("train", reason)
        return True

    def val_loss(self):
        return json.loads(self.report.read_text())["report"]["best_val_loss"]

    def check_loads(self):
        try:
            self.s.tt.load_checkpoint(self.ckpt)
        except Exception as e:  # a checkpoint the package cannot load is a wrong output
            self.s.check("train", f"checkpoint does not load: {type(e).__name__}: {e}")


class Eval:
    """CLI ``eval`` over judged queries, one chunk of them per call, in turn.

    Each chunk has its own judgments file. The reports of the first pass
    over all chunks are kept for the checks; later passes must reproduce
    them exactly.
    """

    def __init__(self, s, index, ckpt, texts, judged, chunk):
        self.s = s
        ids = list(judged)
        self.chunks = []
        for i in range(0, len(ids), chunk):
            path = s.work / f"judged{len(self.chunks)}.jsonl"
            inputs.write_judgments(path, [(q, judged[q]) for q in ids[i:i + chunk]])
            self.chunks.append((path, len(ids[i:i + chunk])))
        self.report = s.work / "eval.json"
        self.argv = ("eval", "--index", index, "--checkpoint", ckpt, "--texts", texts,
                     "--report", self.report)
        self.reports = []
        self.calls = 0

    def __call__(self):
        j = self.calls % len(self.chunks)
        path, n = self.chunks[j]
        ok, elapsed, _ = self.s.cli("eval", *self.argv, "--judgments", path)
        if not ok:
            return False
        self.s.sample("eval", elapsed, n)
        metrics = json.loads(self.report.read_text())["metrics"]
        if self.calls < len(self.chunks):
            self.reports.append(metrics)
        elif metrics != self.reports[j]:
            self.s.check("eval", f"chunk {j} report differs between passes of the same run")
        self.calls += 1
        return True

    def finish_pass(self):
        while self.calls < len(self.chunks):
            if not self():
                return False
        return True

    def quality(self):
        rows = [r for m in self.reports for r in m["per_query"]]
        return {key: sum(r[col] for r in rows) / len(rows)
                for key, col in (("map", "ap"), ("top1", "top1"), ("top10", "top10"))}


class Queries:
    """``n`` library calls ``query(index, model, vec, k=10)``: one client, closed loop."""

    def __init__(self, s, index, model, queries, n):
        self.s = s
        self.index, self.model = index, model
        self.ids, self.vectors, _ = queries
        self.n = n
        self.done = 0
        self.picked = set(s.rng.sample(range(MIN_QUERY_SAMPLES), CHECKED_QUERIES))
        self.kept = []

    def __call__(self):
        for _ in range(self.n):
            i = self.done % len(self.ids)
            ok, elapsed, result = self.s.call("query", self.s.tt.query, self.index, self.model,
                                              self.vectors[i], QUERY_K, self.ids[i])
            if not ok:
                return False
            self.s.sample("query", elapsed)
            if self.done in self.picked:
                self.kept.append((self.vectors[i], [tuple(h) for h in result.hits]))
            self.done += 1
        return True


class CliQueries:
    """``n`` in-process CLI ``query`` calls against a small query store."""

    def __init__(self, s, index, ckpt, store, queries, n):
        self.s = s
        self.argv = ("query", "--index", index, "--checkpoint", ckpt, "--texts", store,
                     "--k", QUERY_K)
        self.ids, self.vectors, _ = queries
        self.n = n
        self.kept = []

    def __call__(self):
        for _ in range(self.n):
            i = self.s.rng.randrange(len(self.ids))
            ok, elapsed, out = self.s.cli("cli_query", *self.argv, "--text-id", self.ids[i])
            if not ok:
                return False
            self.s.sample("cli_query", elapsed)
            hits = [(h["id"], h["score"]) for h in json.loads(out)["hits"]]
            self.kept.append((self.vectors[i], hits))
        return True


def repeated(unit, n):
    """A slice of ``n`` calls to ``unit``, ending at the first failure."""
    return lambda: all(unit() for _ in range(n))


def top_up(s, kind, minimum, unit):
    """Repeat ``unit`` until ``minimum`` untraced samples of ``kind`` exist."""
    while sum(1 for t, *_ in s.samples.get(kind, []) if not t) < minimum:
        if not unit():
            return


def check_train(ckpt, report_path, log_path, steps, full):
    """Exit code was 0; now a readable checkpoint, finite losses, every step logged.

    A run of the default length must also end below the first epoch's
    validation loss.
    """
    try:
        oracle.read_checkpoint(ckpt)
    except Exception as e:  # any failure to load is a wrong output
        return f"checkpoint does not load: {type(e).__name__}: {e}"
    report = json.loads(Path(report_path).read_text())["report"]
    val, best = report["val_loss"], report["best_val_loss"]
    if not all(math.isfinite(v) for v in val) or not math.isfinite(best):
        return f"non-finite validation loss in {val!r}"
    if full and not best < val[0]:
        return f"best val_loss {best!r} is not below the first epoch's {val[0]!r}"
    with open(log_path, encoding="utf-8") as fh:
        logged = sum(1 for line in fh if '"step"' in line)
    if logged != steps:
        return f"log holds {logged} step records, expected {steps}"
    return None


def check_outputs(s, judge, images, queries, clis, evals, features, judged):
    """Compare sampled outputs with the oracle; each wrong one is a failed operation.

    ``judged`` maps the query ids of ``evals.reports`` to their correct images.
    """
    s.check("index", judge.check_index(images))
    for vec, hits in queries.kept:
        s.check("query", judge.check_hits(vec, QUERY_K, hits))
    for vec, hits in clis.kept:
        s.check("cli_query", judge.check_hits(vec, QUERY_K, hits))
    if evals.reports:
        sample = set(s.rng.sample(sorted(judged), min(CHECKED_EVAL_ROWS, len(judged))))
        s.check("eval", oracle.check_eval(judge, evals.reports, features, judged, sample))


def _ok_time(cli_result):
    ok, elapsed, _ = cli_result
    return elapsed if ok else None


def _load_model(s, index_path, ckpt):
    ok1, t1, index = s.call("setup", s.tt.load_index, index_path)
    ok2, t2, model = s.call("setup", s.tt.load_checkpoint, ckpt)
    return (index, model, t1 + t2) if ok1 and ok2 else (None, None, None)


def _paired(s):
    ds = s.work / "ds"
    s.info["inputs"] = inputs.paired_dataset(ds, n_images=2000, noise_sigma=NOISE_2K,
                                             seed=s.seed, n_queries=200)
    s.info.update(index_rows=2000, shared_dim=32)
    judged = {}
    with open(ds / "manifest.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["split"] == "test":
                judged[rec["text_id"]] = rec["image_id"]
    return ds, judged, round(0.8 * 2000) * inputs.CAPTIONS


def train_2k(s):
    """Focus: CLI train at the default config. Set-up: CLI ingest.

    Slices: set-up, two CLI evals of 25 test queries, 400 library queries,
    20 CLI queries. Quality is that of the trained checkpoint over the
    whole test split, ranked by the oracle.
    """
    s.focus_kind = "train"
    ds, judged, pairs = _paired(s)
    setup = Setup(s, lambda: _ok_time(s.cli("setup", "ingest", "--manifest", ds / "manifest.jsonl",
                                                 "--images", ds / "images.emb",
                                                 "--texts", ds / "texts.emb")))
    train = Train(s, ds, "model", EPOCHS, pairs)
    if not (setup() and train()):
        return
    idx = s.work / "index.azi"
    s.cli("setup", "index", "--checkpoint", train.ckpt, "--images", ds / "images.emb", "--out", idx)
    index, model, _ = _load_model(s, idx, train.ckpt)
    if index is None:
        return
    query_store = oracle.read_store(ds / "queries.emb")
    evals = Eval(s, idx, train.ckpt, ds / "texts.emb", judged, chunk=25)
    queries = Queries(s, index, model, query_store, QUERY_SLICE)
    clis = CliQueries(s, idx, train.ckpt, ds / "queries.emb", query_store, CLI_SLICE)
    s.rounds(train, setup, repeated(evals, 2), queries, clis)
    s.peak_rss()
    top_up(s, "query", MIN_QUERY_SAMPLES, queries)
    top_up(s, "setup", SETUP_MIN_REPEATS, setup)
    train.check_loads()

    judge = oracle.Oracle(idx, train.ckpt)
    texts = oracle.read_store(ds / "texts.emb")
    features = dict(zip(texts[0], texts[1]))
    check_outputs(s, judge, oracle.read_store(ds / "images.emb")[1], queries, clis,
                  evals, features, {q: judged[q] for r in evals.reports
                                    for q in (row["query_id"] for row in r["per_query"])})
    s.quality(judge.quality(features, judged))
    s.setup_metric()
    s.metrics["val_loss"] = (train.val_loss(), "nat/pair")
    s.rate_metric("train_steps_per_s", "train", "1/s")
    s.rate_metric("eval_queries_per_s", "eval", "1/s")
    s.latency_metrics("query_ms", "query", (50, 95))
    s.latency_metrics("cli_query_ms", "cli_query", (50,))


def eval_2k(s):
    """Focus: CLI eval of the test split, 200 queries per call. Set-up: CLI index.

    Slices: five set-ups, two 2-epoch CLI trains, 400 library queries, 20
    CLI queries. The model is a default-config checkpoint trained
    beforehand, untimed. Quality is the program's own, over one full pass
    of the test split.
    """
    s.focus_kind = "eval"
    ds, judged, pairs = _paired(s)
    model_run = Train(s, ds, "model", EPOCHS, pairs)
    if not model_run():
        return
    s.samples.clear()
    ckpt, idx = model_run.ckpt, s.work / "index.azi"
    setup = Setup(s, lambda: _ok_time(s.cli("setup", "index", "--checkpoint", ckpt,
                                                 "--images", ds / "images.emb", "--out", idx)))
    if not setup():
        return
    index, model, _ = _load_model(s, idx, ckpt)
    if index is None:
        return
    query_store = oracle.read_store(ds / "queries.emb")
    evals = Eval(s, idx, ckpt, ds / "texts.emb", judged, chunk=200)
    probe = Train(s, ds, "probe", 2, pairs)
    queries = Queries(s, index, model, query_store, QUERY_SLICE)
    clis = CliQueries(s, idx, ckpt, ds / "queries.emb", query_store, CLI_SLICE)
    s.rounds(evals, repeated(setup, 5), repeated(probe, 2), queries, clis)
    evals.finish_pass()
    s.peak_rss()
    top_up(s, "query", MIN_QUERY_SAMPLES, queries)
    top_up(s, "setup", SETUP_MIN_REPEATS, setup)
    model_run.check_loads()
    probe.check_loads()

    judge = oracle.Oracle(idx, ckpt)
    texts = oracle.read_store(ds / "texts.emb")
    features = dict(zip(texts[0], texts[1]))
    check_outputs(s, judge, oracle.read_store(ds / "images.emb")[1], queries, clis,
                  evals, features, judged)
    if len(evals.reports) == len(evals.chunks):
        s.quality(evals.quality())
    s.setup_metric()
    s.metrics["val_loss"] = (model_run.val_loss(), "nat/pair")
    s.rate_metric("train_steps_per_s", "train", "1/s")
    s.rate_metric("eval_queries_per_s", "eval", "1/s")
    s.latency_metrics("query_ms", "query", (50, 95))
    s.latency_metrics("cli_query_ms", "cli_query", (50,))


WORKLOADS = {"train-2k": train_2k, "eval-2k": eval_2k}
