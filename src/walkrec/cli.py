"""Command-line front end: prepare, train, evaluate, bench.

Exit codes: 0 success, 2 usage or configuration problems (argparse uses the
same code), 3 refused by a size guard or estimator validity check, 1 anything
else. The train command accepts a JSON config file; explicit flags override
file values, file values override defaults, and unknown file keys are
rejected.
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
from .factors import load_factors
from .graphnet import build_pseudo_graph, build_social_graph, dense_transition
from .oracle import dense_gamma_truncated
from .trainer import TrainConfig, parse_ks
from .walker import BASELINE_KINDS, BaselineSampler, SamplerConfig, WalkEngine


def _merge_train_settings(args: argparse.Namespace) -> dict:
    """The --config file's settings with the train flags that were given
    laid over them."""
    settings = corpus.read_json_object(args.config) if args.config else {}
    for key in trainer.FLAT_FIELDS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    return settings


def _read_manifest(path: str) -> tuple[int, int]:
    """(n, m) from a prepared directory's manifest.json."""
    manifest = corpus.read_json_object(path)
    dims = [manifest.get(key) for key in ("n", "m")]
    if not all(type(v) is int and v >= 1 for v in dims):
        raise ConfigError(f"{path}: n and m must be positive integers, "
                          f"got n={dims[0]!r}, m={dims[1]!r}")
    return dims[0], dims[1]


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
    os.makedirs(args.out, exist_ok=True)
    spec = corpus.SplitSpec(test_fraction=args.test_fraction,
                            folds=args.folds, seed=args.seed)
    if args.folds:
        splits = corpus.split_folds(matrix, spec)
        for j, (tr, te) in enumerate(splits):
            corpus.write_pairs(os.path.join(args.out, f"fold{j}_train.tsv"), tr)
            corpus.write_pairs(os.path.join(args.out, f"fold{j}_test.tsv"), te)
        train, test = splits[0]
    else:
        train, test = corpus.split_train_test(matrix, spec)
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
        "test_fraction": args.test_fraction,
        "folds": args.folds,
        "seed": args.seed,
        "symmetrize": bool(args.symmetrize),
    }
    corpus.write_json_object(os.path.join(args.out, "manifest.json"), manifest)
    print(f"prepared {matrix.n} users x {matrix.m} items "
          f"({train.nnz} train / {test.nnz} test positives) -> {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = TrainConfig.from_flat(_merge_train_settings(args),
                                   origin=args.config or "train flags")
    train, test, social = _load_data_dir(args.data)
    if config.mode == "samwalker" and social is None:
        raise ConfigError("samwalker mode needs social.tsv in the data "
                          "directory (pass --social to prepare)")
    state = None
    if args.resume:
        state = trainer.load_state(args.out, config, train, social=social)
    log_path = os.path.join(args.out, "metrics.jsonl") if config.eval_every else None
    if log_path:
        os.makedirs(args.out, exist_ok=True)
    state = trainer.fit(train, config, social=social, test=test, state=state,
                        log_path=log_path)
    trainer.save_state(args.out, state)
    print(f"trained {config.mode} to epoch {state.epoch} -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    train, test, _ = _load_data_dir(args.data)
    if test is None:
        raise ConfigError(f"{args.data}: no interactions_test.tsv to evaluate on")
    meta, saved = trainer.read_state_json(args.model)
    trainer.check_same_data(meta, trainer.train_sha256(train), args.model)
    factors = load_factors(os.path.join(args.model, "factors.bin"),
                           train.n, train.m, saved.model.d)
    report = metrics.evaluate(factors, train, test, ks=parse_ks(args.ks))
    if args.json:
        _write_text(args.out, json.dumps(report.as_dict(), sort_keys=True) + "\n")
    else:
        _write_rows(args.out, "metric,K,value",
                    ((metric, "" if k is None else k, f"{value:.6f}")
                     for metric, k, value in report.rows()))
    return 0


def _bench_instance(args: argparse.Namespace):
    if args.data:
        train, test, social = _load_data_dir(args.data)
        return train, test, social
    inst = synth.planted_instance(**synth.parse_synth_spec(args.synth))
    return inst.train, inst.test, None


def _bench_config(args: argparse.Namespace, **overrides) -> TrainConfig:
    """TrainConfig.from_flat on the bench flags that are set, plus overrides;
    a flag that an override would replace is refused."""
    settings = {key: getattr(args, key) for key in trainer.FLAT_FIELDS
                if getattr(args, key, None) is not None}
    clash = sorted(settings.keys() & overrides.keys())
    if clash:
        raise ConfigError(f"--{clash[0].replace('_', '-')} does not apply to "
                          f"bench {args.bench_kind}, which sets {clash[0]} itself")
    settings.update(overrides)
    return TrainConfig.from_flat(settings, origin="bench flags")


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
    config = _bench_config(args, alpha=max(1, args.draws // n))
    if config.mode == "samwalker":
        if social is None:
            raise ConfigError("samwalker bench needs social edges")
        graph = build_social_graph(social, seed=config.seed)
    else:
        graph = build_pseudo_graph(train, K=config.K, seed=config.seed)
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
    config = _bench_config(args)
    state = trainer.fit(train, config, social=social)
    result = metrics.variance_bench(state.factors, state.graph, train,
                                    config.sampler,
                                    repeats=args.repeats,
                                    n_coords=args.coords, seed=args.seed)
    rows = [(kind, f"{info['variance']:.6e}", f"{info['mean_abs_bias']:.6e}")
            for kind, info in result["samplers"].items()]
    _write_rows(args.out, "sampler,variance,mean_abs_bias", rows)
    return 0


def cmd_bench_tm_sweep(args: argparse.Namespace) -> int:
    train, test, social = _bench_instance(args)
    if test is None:
        raise ConfigError("tm-sweep needs a test split")
    rows = []
    for t_m in parse_ks(args.tm_values):
        config = _bench_config(args, t_m=t_m)
        state = trainer.fit(train, config, social=social)
        report = metrics.evaluate(state.factors, train, test)
        for name, value in report.as_dict().items():
            rows.append((t_m, name, f"{value:.6f}"))
    _write_rows(args.out, "t_m,metric,value", rows)
    return 0


def cmd_bench_ablation(args: argparse.Namespace) -> int:
    train, test, social = _bench_instance(args)
    if test is None:
        raise ConfigError("ablation bench needs a test split")
    rows = []
    for variant in ("none", "no_item", "no_community"):
        config = _bench_config(args, mode="samwalker_pp", ablation=variant)
        state = trainer.fit(train, config)
        report = metrics.evaluate(state.factors, train, test)
        label = "full" if variant == "none" else variant
        for name, value in report.as_dict().items():
            rows.append((label, name, f"{value:.6f}"))
    _write_rows(args.out, "variant,metric,value", rows)
    return 0


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    sc = SamplerConfig
    p.add_argument("--alpha", type=int,
                   help=f"walks per user per batch (default {sc.alpha})")
    p.add_argument("--beta", type=float,
                   help=f"item thinning divisor (default {sc.beta:g})")
    p.add_argument("--c", type=float,
                   help=f"walk continuation probability (default {sc.c})")
    p.add_argument("--t-m", type=int, dest="t_m",
                   help=f"propagation depth / walk cap (default {sc.t_m})")


def _add_bench_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="prepared data directory")
    p.add_argument("--synth", default="n=120,m=200,d=8,groups=4,seed=7",
                   help="synthetic instance spec, key=value pairs")
    p.add_argument("--mode", choices=("samwalker", "samwalker_pp"),
                   help="graph mode (default samwalker_pp)")
    p.add_argument("--d", type=int, default=16, help="factor dimension")
    p.add_argument("--k", type=int, default=8, help="community count")
    p.add_argument("--epochs", type=int, default=30, help="training epochs")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.add_argument("--out", help="output CSV path (default stdout)")
    _add_sampler_flags(p)


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
    p.add_argument("--test-fraction", type=float, default=0.1,
                   help="per-user holdout fraction (default 0.1)")
    p.add_argument("--folds", type=int, help="emit K cross-validation folds")
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
                   help="continue from the checkpoint in --out")
    p.add_argument("--mode", choices=trainer.MODES,
                   help="training mode (default samwalker_pp)")
    p.add_argument("--d", type=int, help="factor dimension (default 32)")
    p.add_argument("--k", type=int, help="community count (default 32)")
    p.add_argument("--epochs", type=int, help="epochs to run (default 50)")
    _add_sampler_flags(p)
    p.add_argument("--eta", type=float, help="prior exposure probability (default 0.5)")
    p.add_argument("--epsilon", type=float,
                   help="accidental click probability (default 0.001)")
    p.add_argument("--lr-theta", type=float, dest="lr_theta",
                   help="factor learning rate (default 0.05)")
    p.add_argument("--lr-phi", type=float, dest="lr_phi",
                   help="graph learning rate (default 0.01)")
    p.add_argument("--l2-theta", type=float, dest="l2_theta",
                   help="per-entry factor l2 (default 1e-4)")
    p.add_argument("--n-si", type=int, dest="n_si",
                   help="item columns per graph step (default 100)")
    p.add_argument("--theta-steps", type=int, dest="theta_steps",
                   help="factor batches per epoch (default 1)")
    p.add_argument("--eval-every", type=int, dest="eval_every",
                   help="evaluate every E epochs (default off)")
    p.add_argument("--ks", help="evaluation cutoffs, comma separated (default 5,10)")
    p.add_argument("--seed", type=int, help="master rng seed (default 0)")
    p.add_argument("--deterministic", action="store_true",
                   help="accepted for compatibility; training is always "
                        "deterministic (same seed, byte-identical checkpoints)")
    p.add_argument("--ablation", choices=trainer.ABLATIONS,
                   help="freeze the bridge mix (samwalker_pp only)")
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
    _add_bench_common(b)
    b.add_argument("--draws", type=int, default=200_000,
                   help="draws per sampler (default 200000)")
    b.set_defaults(func=cmd_bench_sampler)

    b = bsub.add_parser("variance", help="gradient estimator variance table")
    _add_bench_common(b)
    b.add_argument("--repeats", type=int, default=200,
                   help="batches per sampler (default 200)")
    b.add_argument("--coords", type=int, default=50,
                   help="sampled factor coordinates (default 50)")
    b.set_defaults(func=cmd_bench_variance)

    b = bsub.add_parser("tm-sweep", help="ranking quality across depths")
    _add_bench_common(b)
    b.add_argument("--tm-values", dest="tm_values", default="1,2,3,5",
                   help="comma-separated depths (default 1,2,3,5)")
    b.set_defaults(func=cmd_bench_tm_sweep)

    b = bsub.add_parser("ablation", help="full vs single-bridge variants")
    _add_bench_common(b)
    b.set_defaults(func=cmd_bench_ablation)

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
