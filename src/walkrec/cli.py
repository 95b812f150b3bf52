"""Command-line front end: prepare, train, evaluate, bench.

Exit codes: 0 success, 2 usage or configuration problems (argparse uses the
same code), 3 refused by a size guard or estimator validity check, 1 anything
else. The train command accepts a JSON config file; explicit flags override
file values, and file values override defaults, or with --resume the
checkpoint's settings. Unknown file keys, and keys given by a flag or the
file that the run's mode does not read (trainer.MODE_SETTINGS), are
rejected. Every train and bench setting flag is built from
trainer.FLAT_FIELDS, so its name is the --config key with - for _.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import corpus, metrics, synth, trainer
from .errors import (ConfigError, EmptyDatasetError, EstimatorError,
                     GuardError, ParseError, WalkrecError)
from .graphnet import dense_transition
from .oracle import dense_gamma_truncated
from .trainer import TrainConfig, parse_ks
from .walker import BASELINE_KINDS, BaselineSampler, WalkEngine

# The settings each bench subcommand reads: variance trains with all of
# them, sampler trains nothing and takes alpha from --draws, tm-sweep takes
# t_m from --tm-values, and ablation always trains samwalker_pp. Bench has
# its own defaults for some; the rest default as TrainConfig does.
_TRAINED = ("mode", "d", "k", "epochs", "seed", "alpha", "beta", "c", "t_m")
BENCH_SETTINGS = {
    "sampler": ("mode", "k", "seed", "beta", "c", "t_m"),
    "variance": _TRAINED,
    "tm-sweep": tuple(key for key in _TRAINED if key != "t_m"),
    "ablation": tuple(key for key in _TRAINED if key != "mode"),
}
BENCH_DEFAULTS = {"d": 16, "k": 8, "epochs": 30, "seed": 0}


def _add_setting_flags(p: argparse.ArgumentParser, keys, defaults: dict,
                       modes: tuple) -> None:
    """One --flag per FLAT_FIELDS key in keys, typed by the schema, with
    --mode limited to modes; a flag not in defaults is None unless given.
    Its help names the modes that read it, when not all of modes do, and
    shows defaults' value, else TrainConfig's."""
    shown = {**TrainConfig().to_flat(), **defaults}
    choices = {"mode": modes, "ablation": trainer.ABLATIONS}
    for key in keys:
        _, _, parse, text = trainer.FLAT_FIELDS[key]
        readers = [mode for mode in modes if key in trainer.MODE_SETTINGS[mode]]
        if len(readers) < len(modes):
            text += f", {' and '.join(readers)} only"
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=parse if parse in (int, float) else str,
                       choices=choices.get(key), default=defaults.get(key),
                       help=f"{text} (default {shown[key]})")


def _merge_train_settings(args: argparse.Namespace, **overrides) -> dict:
    """A run's flat settings: the --config file's (bench has none), the
    setting flags that were given laid over them, then a bench's overrides,
    which set only keys that its parser offers no flag for."""
    config = getattr(args, "config", None)
    settings = corpus.read_json_object(config) if config else {}
    flags = {key: getattr(args, key) for key in trainer.FLAT_FIELDS
             if getattr(args, key, None) is not None}
    return {**settings, **flags, **overrides}


def _read_manifest(path: str) -> tuple[int, int]:
    """(n, m) from a prepared directory's manifest.json."""
    manifest = corpus.read_json_object(path)
    dims = [manifest.get(key) for key in ("n", "m")]
    if not all(type(v) is int and v >= 1 for v in dims):
        raise ConfigError(f"{path}: n and m must be positive integers, "
                          f"got n={dims[0]!r}, m={dims[1]!r}")
    return dims[0], dims[1]


def _require_test(data: str, test, use: str) -> None:
    """Refuse use, a command or flag, when data has no test pairs."""
    if test is None:
        raise ConfigError(f"{os.path.join(data, 'interactions_test.tsv')} is "
                          f"missing or holds no pairs; {use} needs a test split")


def _load_data_dir(path: str):
    train_path = os.path.join(path, "interactions_train.tsv")
    if not os.path.exists(train_path):
        raise ConfigError(f"{path}: no interactions_train.tsv (run prepare first)")
    n = m = None
    manifest_path = os.path.join(path, "manifest.json")
    if os.path.exists(manifest_path):
        n, m = _read_manifest(manifest_path)
    train = corpus.read_pairs(train_path, n=n, m=m)
    test = None
    test_path = os.path.join(path, "interactions_test.tsv")
    if os.path.exists(test_path):
        try:
            test = corpus.read_pairs(test_path, n=train.n, m=train.m)
        except EmptyDatasetError:
            test = None
    social = None
    social_path = os.path.join(path, "social.tsv")
    if os.path.exists(social_path):
        links = corpus.read_pairs(social_path, n=train.n, m=train.n)
        social = corpus.social_edges(
            train.n, np.column_stack([links.row_users, links.row_items]))
    return train, test, social


def cmd_prepare(args: argparse.Namespace) -> int:
    loaded = corpus.load_interactions(args.interactions, fmt=args.format)
    result = corpus.binarize_and_filter(loaded.interactions,
                                        min_item_count=args.min_item_count,
                                        max_item_count=args.max_item_count)
    matrix = result.matrix
    fraction = {} if args.test_fraction is None else {"test_fraction": args.test_fraction}
    if fraction and args.folds is not None:
        raise ConfigError("--test-fraction does not apply with --folds, whose "
                          "fold 0 is the holdout")
    spec = corpus.SplitSpec(seed=args.seed, **fraction)
    folds = None if args.folds is None else corpus.split_folds(matrix, args.folds, args.seed)
    os.makedirs(args.out, exist_ok=True)
    if folds is None:
        train, test = corpus.split_train_test(matrix, spec)
    else:
        for j, (tr, te) in enumerate(folds):
            corpus.write_pairs(os.path.join(args.out, f"fold{j}_train.tsv"), tr)
            corpus.write_pairs(os.path.join(args.out, f"fold{j}_test.tsv"), te)
            if j == 0:  # fold 0 is also the run's train/test split
                train, test = tr, te
    corpus.write_pairs(os.path.join(args.out, "interactions_train.tsv"), train)
    corpus.write_pairs(os.path.join(args.out, "interactions_test.tsv"), test)
    n_social = 0
    if args.social:
        raw_user_map = {tok: j for j, tok in enumerate(loaded.user_ids)}
        pairs = corpus.load_social(args.social, raw_user_map, fmt=args.format)
        old_to_new = corpus.inverse_index(result.user_index, len(loaded.user_ids))
        pairs = corpus.reindex_pairs(pairs, old_to_new)
        edges = corpus.social_edges(matrix.n, pairs, symmetrize=args.symmetrize)
        n_social = edges.n_edges
        corpus.write_columns(os.path.join(args.out, "social.tsv"),
                             np.repeat(np.arange(edges.n), np.diff(edges.indptr)).tolist(),
                             edges.targets.tolist())
    for name, index, tokens in (("idmap_users.tsv", result.user_index, loaded.user_ids),
                                ("idmap_items.tsv", result.item_index, loaded.item_ids)):
        corpus.write_columns(os.path.join(args.out, name), range(index.shape[0]),
                             [tokens[j] for j in index.tolist()])
    manifest = {
        "n": matrix.n,
        "m": matrix.m,
        "nnz": matrix.nnz,
        "train_nnz": train.nnz,
        "test_nnz": test.nnz,
        "social_edges": n_social,
        "min_item_count": args.min_item_count,
        "max_item_count": args.max_item_count,
        "test_fraction": spec.test_fraction,
        "folds": args.folds,
        "seed": args.seed,
        "symmetrize": bool(args.symmetrize),
    }
    corpus.write_json_object(os.path.join(args.out, "manifest.json"), manifest)
    print(f"prepared {matrix.n} users x {matrix.m} items "
          f"({train.nnz} train / {test.nnz} test positives) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    settings = _merge_train_settings(args)
    origin = args.config or "train flags"
    train, test, social = _load_data_dir(args.data)
    if args.resume:  # the checkpoint's settings, the given ones laid over
        state = trainer.load_state(args.out, train, social=social)
        config = trainer.resume_config(state.config, settings, args.out, origin)
    else:
        config = TrainConfig.from_flat(settings, origin=origin)
    unread = [key for key in settings
              if key not in trainer.MODE_SETTINGS[config.mode]]
    if unread:
        raise ConfigError(f"{origin}: mode {config.mode} does not read "
                          f"{', '.join(unread)}")
    if config.eval_every:
        _require_test(args.data, test, "--eval-every")
    if not args.resume:
        state = trainer.init_state(train, config, social)
    log_path = os.path.join(args.out, "metrics.jsonl") if config.eval_every else None
    if log_path:
        os.makedirs(args.out, exist_ok=True)
    state = trainer.fit(train, config, social=social, test=test, state=state,
                        log_path=log_path)
    trainer.save_state(args.out, state)
    print(f"trained {config.mode} to epoch {state.epoch} -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    train, test, social = _load_data_dir(args.data)
    _require_test(args.data, test, "evaluate")
    factors = trainer.load_state(args.model, train, social=social).factors
    report = metrics.evaluate(factors, train, test, ks=parse_ks(args.ks))
    if args.json:
        _write_text(args.out, json.dumps(report.as_dict(), sort_keys=True) + "\n")
    else:
        _write_rows(args.out, "metric,K,value",
                    ((metric, "" if k is None else k, f"{value:.6f}")
                     for metric, k, value in report.rows()))
    return 0


def _bench_instance(args: argparse.Namespace):
    """The bench's train, test and social data, once its count flags are
    known to be usable."""
    for flag, low in (("draws", 1), ("repeats", 2), ("coords", 1)):
        if getattr(args, flag, low) < low:
            raise ConfigError(f"--{flag} must be at least {low}, "
                              f"got {getattr(args, flag)}")
    if args.data:
        train, test, social = _load_data_dir(args.data)
        return train, test, social
    inst = synth.planted_instance(**synth.parse_synth_spec(args.synth))
    return inst.train, inst.test, None


def _write_text(path: str | None, text: str) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_rows(path: str | None, header: str, rows) -> None:
    """Write a CSV table through _write_text."""
    _write_text(path, header + "\n" + "".join(
        ",".join(str(v) for v in row) + "\n" for row in rows))


def cmd_bench_sampler(args: argparse.Namespace) -> int:
    train, _, social = _bench_instance(args)
    if train.n * train.m > 250_000:
        raise GuardError("sampler bench needs a small instance "
                         f"(got {train.n}x{train.m})")
    n, m = train.n, train.m
    config = TrainConfig.from_flat(
        _merge_train_settings(args, alpha=max(1, args.draws // n)),
        origin="bench flags")
    graph = trainer.init_state(train, config, social).graph
    cfg = config.sampler
    W = dense_transition(graph)
    gamma = dense_gamma_truncated(W, train.to_dense(), cfg.c, cfg.t_m)
    rng = np.random.default_rng(args.seed)
    rows = []
    engine = WalkEngine(graph, train, cfg)
    batch = engine.sample_batch(rng)
    counts = np.bincount(batch.users * m + batch.items, minlength=n * m).reshape(n, m)
    expected = cfg.alpha * gamma / cfg.beta
    rows.append(("walk",) + _freq_stats(counts, expected, fixed_total=False))
    for kind in BASELINE_KINDS:
        sampler = BaselineSampler(kind, train)
        b = sampler.sample(args.draws, rng)
        counts = np.bincount(b.users * m + b.items, minlength=n * m).reshape(n, m)
        us, its = np.indices((n, m))
        p = sampler.prob(us.ravel(), its.ravel()).reshape(n, m)
        rows.append((kind,) + _freq_stats(counts, args.draws * p, fixed_total=True))
    _write_rows(args.out, "sampler,cells,statistic,dof,p_value,tv", rows)
    return 0


def _freq_stats(counts: np.ndarray, expected: np.ndarray, fixed_total: bool):
    keep = expected >= 5.0
    obs_tail = counts[~keep].sum()
    exp_tail = expected[~keep].sum()
    obs = counts[keep]
    exp = expected[keep]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    cells = int(keep.sum())
    if exp_tail >= 5.0:
        stat += float((obs_tail - exp_tail) ** 2 / exp_tail)
        cells += 1
    dof = max(1, cells - (1 if fixed_total else 0))
    from scipy.stats import chi2  # slow to import; only this bench needs it
    p_value = f"{chi2.sf(stat, dof):.6g}"
    total = max(counts.sum(), 1.0)
    tv = float(0.5 * np.abs(counts / total - expected / expected.sum()).sum())
    return cells, f"{stat:.3f}", dof, p_value, f"{tv:.6f}"


def cmd_bench_variance(args: argparse.Namespace) -> int:
    train, _, social = _bench_instance(args)
    config = TrainConfig.from_flat(_merge_train_settings(args),
                                   origin="bench flags")
    state = trainer.fit(train, config, social=social)
    result = metrics.variance_bench(state.factors, state.graph, train,
                                    config.sampler,
                                    repeats=args.repeats,
                                    n_coords=args.coords, seed=args.seed)
    rows = [(kind, f"{info['variance']:.6e}", f"{info['mean_abs_bias']:.6e}")
            for kind, info in result["samplers"].items()]
    _write_rows(args.out, "sampler,variance,mean_abs_bias", rows)
    return 0


def cmd_bench_sweep(args: argparse.Namespace) -> int:
    """bench tm-sweep and bench ablation: one fit and one evaluation per
    (label, overrides) variant, one CSV row per metric."""
    train, test, social = _bench_instance(args)
    _require_test(args.data, test, f"bench {args.bench_kind}")
    if args.bench_kind == "tm-sweep":
        column = "t_m"
        variants = [(t_m, {"t_m": t_m}) for t_m in parse_ks(args.tm_values)]
    else:
        column = "variant"
        variants = [("full" if v == "none" else v,
                     {"mode": "samwalker_pp", "ablation": v})
                    for v in trainer.ABLATIONS]
    rows = []
    for label, overrides in variants:
        config = TrainConfig.from_flat(_merge_train_settings(args, **overrides),
                                       origin="bench flags")
        state = trainer.fit(train, config, social=social)
        report = metrics.evaluate(state.factors, train, test)
        rows += [(label, name, f"{value:.6f}")
                 for name, value in report.as_dict().items()]
    _write_rows(args.out, f"{column},metric,value", rows)
    return 0


def _add_bench_common(p: argparse.ArgumentParser, kind: str) -> None:
    p.add_argument("--data", help="prepared data directory")
    p.add_argument("--synth", default="n=120,m=200,d=8,groups=4,seed=7",
                   help="synthetic instance spec, key=value pairs")
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_setting_flags(p, BENCH_SETTINGS[kind], BENCH_DEFAULTS,
                       ("samwalker", "samwalker_pp"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkrec",
        description="Confidence-weighted implicit-feedback recommendation "
                    "with walk-based informative sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="load, filter, split, and remap a dataset")
    p.add_argument("--interactions", required=True, help="raw interaction file")
    p.add_argument("--social", help="raw social edge file")
    p.add_argument("--format", choices=("tsv", "csv"),
                   help="input delimiter (default: sniff)")
    p.add_argument("--min-item-count", type=int, default=3,
                   help="drop items with fewer consumers (default 3)")
    p.add_argument("--max-item-count", type=int, default=100,
                   help="drop items with more consumers (default 100)")
    p.add_argument("--test-fraction", type=float,
                   help="per-user holdout fraction (default 0.1)")
    p.add_argument("--folds", type=int,
                   help="emit K cross-validation folds, fold 0 as the holdout")
    p.add_argument("--seed", type=int, default=0, help="split seed (default 0)")
    p.add_argument("--symmetrize", action="store_true",
                   help="treat social edges as undirected")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a prepared directory")
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --out, on its "
                        "settings with the given ones laid over them")
    p.add_argument("--deterministic", action="store_true",
                   help="accepted for compatibility; training is always "
                        "deterministic (same seed, byte-identical checkpoints)")
    _add_setting_flags(p, trainer.FLAT_FIELDS, {}, trainer.MODES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="rank held-out items with a checkpoint")
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--model", required=True, help="checkpoint directory")
    p.add_argument("--ks", default="5,10", help="cutoffs (default 5,10)")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument("--out", help="write report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="diagnostics and comparisons")
    bsub = p.add_subparsers(dest="bench_kind", required=True)

    b = bsub.add_parser("sampler", help="empirical vs analytic sampler laws")
    _add_bench_common(b, "sampler")
    b.add_argument("--draws", type=int, default=200_000,
                   help="draws per sampler (default 200000)")
    b.set_defaults(func=cmd_bench_sampler)

    b = bsub.add_parser("variance", help="gradient estimator variance table")
    _add_bench_common(b, "variance")
    b.add_argument("--repeats", type=int, default=200,
                   help="batches per sampler (default 200)")
    b.add_argument("--coords", type=int, default=50,
                   help="sampled factor coordinates (default 50)")
    b.set_defaults(func=cmd_bench_variance)

    b = bsub.add_parser("tm-sweep", help="ranking quality across depths")
    _add_bench_common(b, "tm-sweep")
    b.add_argument("--tm-values", dest="tm_values", default="1,2,3,5",
                   help="comma-separated depths (default 1,2,3,5)")
    b.set_defaults(func=cmd_bench_sweep)

    b = bsub.add_parser("ablation", help="full vs single-bridge variants")
    _add_bench_common(b, "ablation")
    b.set_defaults(func=cmd_bench_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, EmptyDatasetError) as e:
        print(f"walkrec: {e}", file=sys.stderr)
        return 2
    except (GuardError, EstimatorError) as e:
        print(f"walkrec: {e}", file=sys.stderr)
        return 3
    except WalkrecError as e:
        print(f"walkrec: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - surface anything unexpected as 1
        print(f"walkrec: internal error: {e!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
