"""Command-line surface: train, encode, search, eval, and an ITQ baseline.

Exit codes: 0 success, 2 input error, 3 training divergence, 4 undefined
metric.  All commands are deterministic given their flags and --seed, and
all text output is locale-independent.
"""

import argparse
import contextlib
import sys
from dataclasses import asdict, replace

from .errors import (
    DivergenceError,
    FormatError,
    InvalidInput,
    NumericalFailure,
    UndefinedMetric,
)
from .formats import (
    atomic_write,
    load_model,
    read_codes,
    read_features,
    read_labels,
    save_model,
    write_codes,
)
from .hashloss import Hyperparams
from .index import _ranked_map, pack, search
from .network import SgdConfig
from .numerics import check_int
from .pretrain import ITQ_ITERS, init_binary_codes
from .trainer import DR_DIM, OUTER_ROUNDS, LabeledFeatures, default_schedule, train, update_codes


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _text_out(path):
    """Where a command writes its text lines: `path`, atomically, or stdout."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return atomic_write(path, "w", encoding="ascii")


def cmd_train(args) -> int:
    data = LabeledFeatures(read_features(args.features), read_labels(args.labels))
    sched = replace(default_schedule(data.n, args.batch, seed=args.seed), outer=args.outer)
    hp = Hyperparams(alpha=args.alpha, beta=args.beta, theta=args.theta, gamma=args.gamma)
    sgd = SgdConfig(learning_rate=args.lr, weight_decay=args.weight_decay, momentum=args.momentum)
    state = train(data, args.bits, hp, sched, sgd, dr_dim=args.dr_dim)

    with _text_out(args.log) as out:
        for r in state.history:
            print(
                f"{r.outer} {r.inner} {_fmt(r.total)} {_fmt(r.similarity)} "
                f"{_fmt(r.quantization)} {_fmt(r.independence)} {_fmt(r.balance)}",
                file=out,
            )

    metadata = {
        "bits": args.bits,
        "samples": data.n,
        "feature_dim": data.dim,
        "dr_dim": args.dr_dim,
        **asdict(hp),
        **asdict(sgd),
        **asdict(sched),
    }
    save_model(args.out, state.params, metadata)
    return 0


def cmd_encode(args) -> int:
    params, _ = load_model(args.model)
    features = read_features(args.features)
    if features.shape[1] != params.in_dim:
        raise InvalidInput(
            f"{args.features} has dim {features.shape[1]}, model expects {params.in_dim}"
        )
    codes = update_codes(params, features)
    write_codes(args.out, pack(codes))
    return 0


def cmd_search(args) -> int:
    check_int(args.k, "k", 1)
    db = read_codes(args.db)
    queries = read_codes(args.queries)
    if db.bits != queries.bits:
        raise InvalidInput(
            f"code length mismatch: {args.db} has {db.bits} bits, "
            f"{args.queries} has {queries.bits}"
        )
    with _text_out(args.out) as out:
        for i in range(queries.n):
            ranked = search(db, queries.code(i), args.k)
            pairs = " ".join(f"{j}:{dist}" for j, dist in ranked)
            print(f"{i} {pairs}", file=out)
    return 0


def cmd_eval(args) -> int:
    db = read_codes(args.db)
    db_labels = read_labels(args.db_labels)
    queries = read_codes(args.queries)
    query_labels = read_labels(args.query_labels)
    value = _ranked_map(db, db_labels, queries, query_labels, args.leave_one_out)
    print(f"mAP {value:.6f}")
    print(f"bits {db.bits}")
    print(f"queries {queries.n}")
    print(f"database {db.n}")
    return 0


def cmd_itq(args) -> int:
    features = read_features(args.features)
    result = init_binary_codes(features, args.bits, args.seed, iters=args.iters)
    for i, value in enumerate(result.objective_trace, start=1):
        print(f"iter {i} {value:.6f}")
    print(f"final {result.objective_trace[-1]:.6f}")
    write_codes(args.out, pack(result.codes))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hashnet",
        description="Supervised binary-code learning and Hamming-distance retrieval.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("train", help="train a hashing model from features and labels")
    p.add_argument("features", help="HSF1 feature file")
    p.add_argument("labels", help="HSL1 label file")
    p.add_argument("-o", "--out", required=True, help="output model path (JSON)")
    p.add_argument("--bits", type=int, default=16, help="code length (default 16)")
    p.add_argument("--alpha", type=float, default=Hyperparams.alpha, help="similarity weight")
    p.add_argument("--beta", type=float, default=Hyperparams.beta, help="quantization weight")
    p.add_argument("--gamma", type=float, default=Hyperparams.gamma, help="balance weight")
    p.add_argument("--theta", type=float, default=Hyperparams.theta, help="independence weight")
    p.add_argument("--lr", type=float, default=SgdConfig.learning_rate, help="learning rate")
    p.add_argument("--weight-decay", type=float, default=SgdConfig.weight_decay)
    p.add_argument("--momentum", type=float, default=SgdConfig.momentum)
    p.add_argument("--batch", type=int, default=256, help="minibatch size")
    p.add_argument("--outer", type=int, default=OUTER_ROUNDS, help="outer code-update rounds")
    p.add_argument("--dr-dim", type=int, default=DR_DIM,
                   help="reduction layer width (capped at the feature dim)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="write per-batch loss lines here instead of stdout")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="binarize features through a trained model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("features", help="HSF1 feature file")
    p.add_argument("-o", "--out", required=True, help="output HSB1 code path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("search", help="exact Hamming k-nearest-neighbor scan")
    p.add_argument("db", help="database HSB1 file")
    p.add_argument("queries", help="query HSB1 file")
    p.add_argument("-k", type=int, default=10, help="results per query")
    p.add_argument("-o", "--out", help="write result lines here instead of stdout")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="mean average precision over full rankings")
    p.add_argument("db", help="database HSB1 file")
    p.add_argument("db_labels", help="database HSL1 file")
    p.add_argument("queries", help="query HSB1 file")
    p.add_argument("query_labels", help="query HSL1 file")
    p.add_argument("--leave-one-out", action="store_true",
                   help="drop each query's own id from its ranking")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("itq", help="unsupervised ITQ codes (also the training start)")
    p.add_argument("features", help="HSF1 feature file")
    p.add_argument("-o", "--out", required=True, help="output HSB1 code path")
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--iters", type=int, default=ITQ_ITERS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_itq)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, InvalidInput, NumericalFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UndefinedMetric as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
