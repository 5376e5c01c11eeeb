"""Command-line front end: config-driven experiments with CSV outputs.

Subcommands: train, globality, enum, fim, effdim, bound, decode.
Common flags: --config, --seed, --out-dir; ``train`` also takes --jobs,
the number of seeds trained in parallel.  Exit codes: 0 on success, 2
for configuration/usage errors, 3 for runtime failures.
Every output file embeds the fully resolved configuration as comment
lines, and reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, ansatz, config as config_mod, decode, train as train_mod
from .config import ConfigError


def _write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _header(cfg: config_mod.ExperimentConfig | None, extra=()) -> list[str]:
    items = list(extra)
    if cfg is not None:
        items.extend(f"{key} = {value}" for key, value in cfg.resolved_items())
    return [f"# {line}" for line in items]


def _ensure_out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _seeds(cfg, args) -> tuple:
    if args.seed is not None:
        return (args.seed,)
    return cfg.seeds


def _train_one(payload):
    cfg, seed = payload
    env = config_mod.build_env(cfg)
    encoder = config_mod.build_encoder(cfg)
    policy = config_mod.build_policy(cfg)
    return seed, train_mod.train_run(env, encoder, policy, cfg.train, seed)


def cmd_train(args) -> int:
    cfg = config_mod.load_config(args.config)
    out_dir = _ensure_out_dir(args)
    seeds = _seeds(cfg, args)
    payloads = [(cfg, seed) for seed in seeds]
    if args.jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = dict(pool.map(_train_one, payloads))
    else:
        results = dict(_train_one(p) for p in payloads)

    per_seed_records = []
    for seed in seeds:
        result = results[seed]
        train_mod.write_learning_curve(
            os.path.join(out_dir, f"curve_seed{seed}.csv"),
            result.records,
            [f"seed = {seed}"] + [f"{k} = {v}" for k, v in cfg.resolved_items()],
        )
        ansatz.save_params(
            os.path.join(out_dir, f"params_seed{seed}.txt"), cfg.model, result.params
        )
        per_seed_records.append(result.records)
    train_mod.write_aggregate_curve(
        os.path.join(out_dir, "curve_aggregate.csv"),
        per_seed_records,
        [f"seeds = {','.join(str(s) for s in seeds)}"]
        + [f"{k} = {v}" for k, v in cfg.resolved_items()],
    )
    print(f"wrote {len(seeds)} learning curves to {out_dir}")
    return 0


def _parse_postfn(args) -> decode.PostProcessing:
    return config_mod.build_postfn(args.postfn, args.n, args.m)


def cmd_globality(args) -> int:
    fn = _parse_postfn(args)
    report = decode.globality(fn)
    print(f"globality = {report.value} ({float(report.value)!r})")
    if args.ei_dump:
        if fn.n_qubits > 8:
            raise RuntimeError("EI dump is limited to 8 qubits")
        for b, action in enumerate(fn.action_table().tolist()):
            print(f"{format(b, f'0{fn.n_qubits}b')},{action},{report.ei[b]}")
    return 0


def cmd_enum(args) -> int:
    out_dir = _ensure_out_dir(args)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed or 0))
    hist = decode.globality_histogram(
        args.n, args.m, mode=args.mode, samples=args.samples, rng=rng
    )
    lines = _header(
        None,
        extra=[
            f"n = {args.n}",
            f"m = {args.m}",
            f"mode = {args.mode}",
            f"samples = {args.samples if args.mode == 'sampled' else hist.total}",
            f"seed = {args.seed or 0}",
        ],
    )
    lines.append("g_value,count")
    for value, count in hist.sorted_items():
        lines.append(f"{float(value)!r},{count}")
    _write_lines(os.path.join(out_dir, "histogram.csv"), lines)
    census = decode.count_balanced_partitionings(args.n, args.m)
    print(f"{hist.total} partitionings examined of {census} total")
    return 0


def _fim_samples(cfg, seed):
    policy = config_mod.build_policy(cfg)
    sampler = config_mod.build_state_sampler(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return analysis.sample_fims(
        policy, sampler, cfg.analysis.param_sets, cfg.analysis.states, rng
    )


def cmd_fim(args) -> int:
    cfg = config_mod.load_config(args.config)
    out_dir = _ensure_out_dir(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    fims = _fim_samples(cfg, seed)
    stats = analysis.spectrum_stats(fims.aggregate, cfg.analysis.near_zero)

    lines = _header(cfg, extra=[f"seed = {seed}"])
    lines.append("bucket_low,bucket_high,count")
    for low, high, count in stats.buckets:
        lines.append(f"{low!r},{high!r},{count}")
    _write_lines(os.path.join(out_dir, "spectrum.csv"), lines)

    lines = _header(cfg, extra=[f"seed = {seed}"])
    for row in fims.aggregate:
        lines.append(",".join(repr(float(v)) for v in row))
    _write_lines(os.path.join(out_dir, "fim_aggregate.csv"), lines)

    print(
        f"near-zero eigenvalue fraction: {stats.near_zero_fraction!r} "
        f"(threshold {cfg.analysis.near_zero!r})"
    )
    return 0


def cmd_effdim(args) -> int:
    cfg = config_mod.load_config(args.config)
    out_dir = _ensure_out_dir(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    fims = _fim_samples(cfg, seed)
    report = analysis.effective_dimension(fims, cfg.analysis.data_sizes)
    lines = _header(cfg, extra=[f"seed = {seed}"])
    lines.append("data_size,eff_dim,normalized")
    for size, value, norm in zip(report.data_sizes, report.values, report.normalized):
        lines.append(f"{size},{float(value)!r},{float(norm)!r}")
    _write_lines(os.path.join(out_dir, "effdim.csv"), lines)
    print(f"effective dimension at {report.data_sizes[-1]}: {float(report.values[-1])!r}")
    return 0


def cmd_bound(args) -> int:
    if args.config is None:
        bound = analysis.accuracy_bound(args.m)
        print(f"accuracy bound = {bound} ({float(bound)!r})")
        return 0
    cfg = config_mod.load_config(args.config)
    out_dir = _ensure_out_dir(args)
    env = config_mod.build_env(cfg)
    encoder = config_mod.build_encoder(cfg)
    policy = config_mod.build_policy(cfg)
    seeds = _seeds(cfg, args)
    report = analysis.bound_compliance_experiment(env, encoder, policy, cfg.train, seeds)
    lines = _header(
        cfg,
        extra=[
            f"bound = {report.bound} ({float(report.bound)!r})",
            f"slack = {report.slack!r}",
        ],
    )
    lines.append("seed,accuracy,within_bound")
    for seed, acc in zip(seeds, report.accuracies):
        lines.append(f"{seed},{float(acc)!r},{acc <= float(report.bound) + report.slack}")
    _write_lines(os.path.join(out_dir, "bound_report.csv"), lines)
    print(
        f"bound {float(report.bound)!r}: "
        f"{'all seeds within' if report.all_within else 'VIOLATED'}"
    )
    return 0 if report.all_within else 3


def cmd_decode(args) -> int:
    fn = _parse_postfn(args)
    print(decode.decode(fn, args.bits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpglab",
        description="Quantum policy gradient lab: training, decoding analysis, "
        "and information-geometry diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=False):
        p.add_argument(
            "--seed", type=_int_at_least(0), default=None, help="override the config seed(s)"
        )
        p.add_argument("--out-dir", default="runs", help="output directory")
        if config:
            p.add_argument("--config", required=True, help="experiment config file")

    p = sub.add_parser("train", help="REINFORCE training, learning-curve CSVs")
    add_common(p, config=True)
    p.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="seeds trained in parallel"
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("globality", help="globality of a post-processing function")
    p.add_argument("--postfn", required=True, help="global | msb | parity:<q> | table:<path>")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="qubit count")
    p.add_argument("--m", type=_int_at_least(2), required=True, help="action count")
    p.add_argument("--ei-dump", action="store_true", help="print per-bitstring EI (n <= 8)")
    p.set_defaults(func=cmd_globality)

    p = sub.add_parser("enum", help="histogram of globality over balanced partitionings")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(2), required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=_int_at_least(1), default=100000)
    add_common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("fim", help="empirical Fisher information spectrum")
    add_common(p, config=True)
    p.set_defaults(func=cmd_fim)

    p = sub.add_parser("effdim", help="effective dimension over data sizes")
    add_common(p, config=True)
    p.set_defaults(func=cmd_effdim)

    p = sub.add_parser("bound", help="softmax accuracy bound / compliance experiment")
    p.add_argument(
        "--m", type=_int_at_least(2), default=4, help="action count for the bare bound"
    )
    p.add_argument("--config", default=None, help="run the training compliance experiment")
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--out-dir", default="runs")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("decode", help="decode one bitstring")
    p.add_argument("--postfn", required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(2), required=True)
    p.add_argument("--bits", required=True, help="bitstring, most significant bit first")
    p.set_defaults(func=cmd_decode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
