"""The benchmark's three workloads.

Each workload is a class with:

  SIZES                        input sizes, "full" for measuring, "tiny" for tests;
                               lib_calls is the fixed number of library calls
  MAIN                         label of the CLI command whose wall time is cmd_s
  RATE                         its named throughput, reported as rate_per_s
  LATENCY                      name prefix of its library-loop latency figures
  SETUP_CODES                  code file that set-up loads with read_codes, or None
  LIB_AFTER                    label of the CLI command whose output the library
                               loop needs, or None; the loop starts after it
  generate(work, seed, size)   write the inputs (benchmark process)
  rep(ctx, i)                  one repetition of its CLI commands (worker process)
  library(ctx)                 its library closed loop as (function, argument
                               tuples), one call per tuple (worker process)
  keep(results)                arrays of the first `checked` library results,
                               for check()
  check(work, size, result)    failed output checks, as strings (benchmark process)
  named(result, size)          its end-to-end figures under the names the
                               README gives them, as {name: (value, unit)}

Why each workload exists, and which layers it should and should not move,
is in README.md.
"""

import hashlib
import statistics
import time

import numpy as np

import gen
import oracle

# ITQ iterations of the `itq` command, the same as the training start's.
ITQ_ITERS = 50

# Half a unit in the last place of the mAP that `eval` prints.
MAP_PRECISION = 0.5e-6


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tail_index(count):
    """Index, in sorted order, of the highest sample with at least ten
    samples beyond it (the maximum when there are fewer than eleven)."""
    return max(count - 11, 0) if count > 10 else count - 1


def latency(samples_s):
    """(p50_ms, tail_ms, tail percentile label) of latency samples."""
    ordered = sorted(samples_s)
    i = tail_index(len(ordered))
    return 1e3 * statistics.median(ordered), 1e3 * ordered[i], f"p{100 * (i + 1) / len(ordered):g}"


def walls(result, label):
    return [op["wall_s"] for rep in result["reps"] for op in rep["ops"] if op["label"] == label]


def library_mismatches(what, result, db_bits, query_bits, k=None):
    """Kept library search results that differ from the oracle ranking.
    A traced run keeps none."""
    lib = result["library_results"]
    failures = []
    for j, (ids, dists) in enumerate(zip(lib.get("ids", ()), lib.get("dists", ()))):
        want_ids, want_dists = oracle.ranking(db_bits, query_bits[j], k)
        if not (np.array_equal(ids, want_ids) and np.array_equal(dists, want_dists)):
            failures.append(f"{what} {j} differs from the oracle")
    return failures


def rank_and_score(index, db, db_labels, query, label):
    """One query of `eval`: its full ranking and its average precision."""
    ranked = index.search(db, query, db.n)
    return ranked, index.mean_average_precision([ranked], [label], db_labels)


def rank_calls(hn, db_path, db_labels_path, q_path, q_labels_path, count):
    """The library loop of rank_and_score over the query file, cycled to
    `count` calls."""
    db = hn.formats.read_codes(db_path)
    db_y = hn.formats.read_labels(db_labels_path)
    queries = hn.formats.read_codes(q_path)
    q_y = hn.formats.read_labels(q_labels_path)
    calls = [(hn.index, db, db_y, queries.code(j % queries.n), q_y[j % queries.n])
             for j in range(count)]
    return rank_and_score, calls


def keep_rankings(results):
    return {"ids": np.array([[r[0] for r in ranked] for ranked, _ in results]),
            "dists": np.array([[r[1] for r in ranked] for ranked, _ in results]),
            "ap": np.array([ap for _, ap in results])}


def ranking_mismatches(what, result, db_bits, db_labels, query_bits, query_labels):
    """Kept rank_and_score results whose ranking or average precision
    differs from the oracle's."""
    failures = library_mismatches(what, result, db_bits, query_bits)
    for j, ap in enumerate(result["library_results"].get("ap", ())):
        ids, _ = oracle.ranking(db_bits, query_bits[j])
        want = oracle.average_precision(db_labels[ids], query_labels[j])
        if abs(ap - want) > 1e-12:
            failures.append(f"{what} {j} gave AP {ap}, oracle gives {want}")
    return failures


def parse_map(text):
    for line in text.splitlines():
        if line.startswith("mAP "):
            return float(line.split()[1])
    return None


class Pipeline:
    """train -> encode (database, queries) -> eval -> itq on a Gaussian
    class mixture, with the database encoded twice more, between the later
    commands; the library loop encodes one chunk of database samples at a
    time, in `encode`'s blocks."""

    name = "pipeline"
    MAIN = "train"
    RATE = "encode_sps"
    LATENCY = "encode_chunk"
    SETUP_CODES = None
    LIB_AFTER = "train"  # the loop encodes with the first repetition's model
    # cmd_s is the median of at least three `train` walls, which steadies it
    # against the host's speed phases; the determinism check compares them.
    MIN_REPS = 3
    SIZES = {
        "full": dict(n_db=20000, n_query=100, dim=512, classes=10, bits=32, outer=2,
                     block=256, chunk=2048, lib_chunks=2, lib_calls=100, checked=4),
        "tiny": dict(n_db=400, n_query=20, dim=16, classes=4, bits=8, outer=1,
                     block=256, chunk=200, lib_chunks=2, lib_calls=30, checked=2),
    }

    @staticmethod
    def generate(work, seed, size):
        db_x, db_y, q_x, q_y = gen.class_mixture(
            seed, size["n_db"], size["n_query"], size["dim"], size["classes"]
        )
        gen.write_features(work / "db.hsf", db_x)
        gen.write_labels(work / "db.hsl", db_y)
        gen.write_features(work / "q.hsf", q_x)
        gen.write_labels(work / "q.hsl", q_y)

    @staticmethod
    def rep(ctx, i):
        w, s, seed = ctx.work, ctx.size, str(ctx.seed)
        out = {k: w / f"{k}.r{i}" for k in ("model", "log", "db_codes", "db_codes_b",
                                             "db_codes_c", "q_codes", "itq_codes")}

        def encode_db(key):
            ctx.cli("encode", ["encode", out["model"], w / "db.hsf", "-o", out[key]])

        ctx.cli("train", ["train", w / "db.hsf", w / "db.hsl", "-o", out["model"],
                          "--bits", s["bits"], "--outer", s["outer"], "--alpha", "0.1",
                          "--lr", "20", "--weight-decay", "0", "--seed", seed,
                          "--log", out["log"]])
        encode_db("db_codes")
        ctx.cli("encode_q", ["encode", out["model"], w / "q.hsf", "-o", out["q_codes"]])
        eval_out = ctx.cli("eval", ["eval", out["db_codes"], w / "db.hsl",
                                    out["q_codes"], w / "q.hsl"])
        encode_db("db_codes_b")
        itq_out = ctx.cli("itq", ["itq", w / "db.hsf", "-o", out["itq_codes"],
                                  "--bits", s["bits"], "--iters", ITQ_ITERS, "--seed", seed])
        encode_db("db_codes_c")
        digests = {k: sha256(p) for k, p in out.items() if p.exists()}
        digests["eval_stdout"] = hashlib.sha256(eval_out.encode()).hexdigest()
        digests["itq_stdout"] = hashlib.sha256(itq_out.encode()).hexdigest()
        return {"digests": digests, "eval": eval_out}

    @staticmethod
    def library(ctx):
        """update_codes, in `encode`'s blocks, on the first lib_chunks
        chunks of the database, cycled, with the first repetition's model."""
        hn, c, m = ctx.hashnet, ctx.size["chunk"], ctx.size["lib_chunks"]
        params, _ = hn.formats.load_model(ctx.work / "model.r0")
        x = hn.formats.read_features(ctx.work / "db.hsf")
        chunks = [x[j * c : (j + 1) * c].copy() for j in range(m)]
        return hn.trainer.update_codes, [(params, chunks[j % m], ctx.size["block"])
                                         for j in range(ctx.size["lib_calls"])]

    @staticmethod
    def keep(results):
        return {"codes": np.array(results)}

    @staticmethod
    def check(work, size, result):
        failures = []
        first = result["reps"][0]["digests"]
        for i, rep in enumerate(result["reps"]):
            differ = sorted(k for k in first if rep["digests"].get(k) != first[k])
            if differ:
                failures.append(f"pipeline repetition {i} differs from repetition 0: {differ}")
            again = [k for k in ("db_codes_b", "db_codes_c")
                     if rep["digests"].get(k) != rep["digests"].get("db_codes")]
            if again:
                failures.append(f"pipeline repetition {i}: {again} differ from db_codes")
        printed = parse_map(result["reps"][0]["eval"])
        db_packed, bits = gen.read_codes(work / "db_codes.r0")
        db_bits = oracle.unpack_bits(db_packed, bits)
        q_bits = oracle.unpack_bits(gen.read_codes(work / "q_codes.r0")[0], bits)
        db_y, q_y = gen.read_labels(work / "db.hsl"), gen.read_labels(work / "q.hsl")
        expect = oracle.mean_average_precision(db_bits, db_y, q_bits, q_y)
        if printed is None or abs(printed - expect) > MAP_PRECISION:
            failures.append(f"pipeline eval printed mAP {printed}, oracle gives {expect:.8f}")
        c, m = size["chunk"], size["lib_chunks"]
        for j, codes in enumerate(result["library_results"].get("codes", ())):
            want = db_bits[(j % m) * c : (j % m + 1) * c].T == 1
            if not np.array_equal(codes > 0, want):
                failures.append(f"pipeline library encode chunk {j} differs from `encode`")
        return failures

    @staticmethod
    def named(result, size):
        return {
            "train_s": (statistics.median(walls(result, "train")), "s"),
            "encode_sps": (statistics.median(size["n_db"] / t for t in walls(result, "encode")),
                           "samples/s"),
            "itq_s": (statistics.median(walls(result, "itq")), "s"),
            "map": (parse_map(result["reps"][0]["eval"]), "1"),
        }


class Knn:
    """Top-k search over a million clustered 64-bit codes."""

    name = "knn"
    MAIN = "search"
    RATE = "knn_qps"
    LATENCY = "knn"
    SETUP_CODES = "db.hsb"
    LIB_AFTER = None
    MIN_REPS = 3
    SIZES = {
        "full": dict(n_db=1_000_000, bits=64, clusters=1000, flip=0.1, k=10,
                     cli_queries=16, lib_calls=100, checked=16),
        "tiny": dict(n_db=3000, bits=64, clusters=30, flip=0.1, k=10,
                     cli_queries=4, lib_calls=30, checked=4),
    }

    @staticmethod
    def generate(work, seed, size):
        db, queries = gen.clustered_codes(
            seed, size["n_db"], size["cli_queries"] + size["lib_calls"], size["bits"],
            size["clusters"], size["flip"],
        )
        gen.write_codes(work / "db.hsb", db, size["bits"])
        gen.write_codes(work / "q.hsb", queries[: size["cli_queries"]], size["bits"])
        gen.write_codes(work / "lq.hsb", queries[size["cli_queries"] :], size["bits"])

    @staticmethod
    def rep(ctx, i):
        out = ctx.work / f"search.r{i}"
        ctx.cli("search", ["search", ctx.work / "db.hsb", ctx.work / "q.hsb",
                           "-k", ctx.size["k"], "-o", out])
        return {"digests": {"out": sha256(out) if out.exists() else None}}

    @staticmethod
    def library(ctx):
        hn, k = ctx.hashnet, ctx.size["k"]
        t0 = time.perf_counter()
        db = hn.formats.read_codes(ctx.work / "db.hsb")
        ctx.extra["load_s"] = time.perf_counter() - t0
        queries = hn.formats.read_codes(ctx.work / "lq.hsb")
        return hn.index.search, [(db, queries.code(j), k) for j in range(queries.n)]

    @staticmethod
    def keep(results):
        return {"ids": np.array([[r[0] for r in ranked] for ranked in results]),
                "dists": np.array([[r[1] for r in ranked] for ranked in results])}

    @staticmethod
    def check(work, size, result):
        failures = []
        k = size["k"]
        db_packed, bits = gen.read_codes(work / "db.hsb")
        db_bits = oracle.unpack_bits(db_packed, bits)
        q_bits = oracle.unpack_bits(gen.read_codes(work / "q.hsb")[0], bits)
        lines = (work / "search.r0").read_text(encoding="ascii").splitlines()
        if len(lines) != q_bits.shape[0]:
            failures.append(f"knn search printed {len(lines)} lines for {q_bits.shape[0]} queries")
        for i, (line, qb) in enumerate(zip(lines, q_bits)):
            ids, dist = oracle.ranking(db_bits, qb, k)
            expect = f"{i} " + " ".join(f"{a}:{b}" for a, b in zip(ids, dist))
            if line != expect:
                failures.append(f"knn search query {i} differs from the oracle")
        first = result["reps"][0]["digests"]
        for i, rep in enumerate(result["reps"][1:], start=1):
            if rep["digests"] != first:
                failures.append(f"knn search repetition {i} differs from repetition 0")
        lq_bits = oracle.unpack_bits(gen.read_codes(work / "lq.hsb")[0], bits)
        failures += library_mismatches("knn library search", result, db_bits, lq_bits, k)
        return failures

    @staticmethod
    def named(result, size):
        return {
            "knn_qps": (statistics.median(size["cli_queries"] / t
                                          for t in walls(result, "search")), "queries/s"),
            "knn_load_s": (result["extra"]["load_s"], "s"),
        }


class Rank:
    """mAP over full rankings of noisy labelled 32-bit codes."""

    name = "rank"
    MAIN = "eval"
    RATE = "eval_qps"
    LATENCY = "query_rank"
    SETUP_CODES = None
    LIB_AFTER = None
    MIN_REPS = 3
    SIZES = {
        "full": dict(n_db=20000, bits=32, classes=10, flip=0.25, slices=5, slice=100,
                     lib_calls=100, checked=4),
        "tiny": dict(n_db=500, bits=32, classes=4, flip=0.25, slices=2, slice=10,
                     lib_calls=30, checked=2),
    }

    @staticmethod
    def generate(work, seed, size):
        db, db_y, q, q_y = gen.labelled_codes(
            seed, size["n_db"], size["slices"] * size["slice"], size["bits"],
            size["classes"], size["flip"],
        )
        gen.write_codes(work / "db.hsb", db, size["bits"])
        gen.write_labels(work / "db.hsl", db_y)
        m = size["slice"]
        for j in range(size["slices"]):
            gen.write_codes(work / f"q{j}.hsb", q[j * m : (j + 1) * m], size["bits"])
            gen.write_labels(work / f"q{j}.hsl", q_y[j * m : (j + 1) * m])

    @staticmethod
    def rep(ctx, i):
        j = i % ctx.size["slices"]
        w = ctx.work
        out = ctx.cli("eval", ["eval", w / "db.hsb", w / "db.hsl", w / f"q{j}.hsb",
                               w / f"q{j}.hsl"])
        return {"slice": j, "eval": out}

    @staticmethod
    def library(ctx):
        w = ctx.work
        return rank_calls(ctx.hashnet, w / "db.hsb", w / "db.hsl", w / "q0.hsb", w / "q0.hsl",
                          ctx.size["lib_calls"])

    keep = staticmethod(keep_rankings)

    @staticmethod
    def check(work, size, result):
        failures = []
        db_packed, bits = gen.read_codes(work / "db.hsb")
        db_bits = oracle.unpack_bits(db_packed, bits)
        db_y = gen.read_labels(work / "db.hsl")
        expect = {}
        for i, rep in enumerate(result["reps"]):
            j = rep["slice"]
            if j not in expect:
                q_bits = oracle.unpack_bits(gen.read_codes(work / f"q{j}.hsb")[0], bits)
                expect[j] = oracle.mean_average_precision(
                    db_bits, db_y, q_bits, gen.read_labels(work / f"q{j}.hsl")
                )
            printed = parse_map(rep["eval"])
            if printed is None or abs(printed - expect[j]) > MAP_PRECISION:
                failures.append(
                    f"rank eval repetition {i} printed mAP {printed}, oracle gives {expect[j]:.8f}"
                )
        q_bits = oracle.unpack_bits(gen.read_codes(work / "q0.hsb")[0], bits)
        failures += ranking_mismatches("rank library query ranking", result, db_bits, db_y,
                                       q_bits, gen.read_labels(work / "q0.hsl"))
        return failures

    @staticmethod
    def named(result, size):
        return {
            "eval_qps": (statistics.median(size["slice"] / t for t in walls(result, "eval")),
                         "queries/s"),
            "map": (parse_map(result["reps"][0]["eval"]), "1"),
        }


WORKLOADS = {w.name: w for w in (Pipeline, Knn, Rank)}
