"""Command-line front end: config-driven experiments with CSV outputs.

Subcommands: train, globality, enum, fim, bound, decode.
``train``, ``enum`` and ``fim`` take --seed and --out-dir, and
``train`` and ``fim`` also --config; ``globality``, ``bound`` and
``decode`` take their inputs as flags and print their results.
``train`` also takes --jobs, the number of seeds trained in parallel,
one spawned worker process each.  A worker runs OpenBLAS on one
thread, so the workers do not oversubscribe the cores, unless
``OPENBLAS_NUM_THREADS`` in the environment says otherwise; the
caller's environment is left as it was.  Exit codes: 0 on success, 2 for
configuration/usage errors, 3 for runtime failures and for a bound
report with a seed above the bound.  :func:`main` returns every exit
code, argparse's usage errors and ``--help`` included, and raises no
``SystemExit``.  A usage error that the flags
alone show exits 2 before any work and before any output directory is
made: ``globality --ei-dump`` above 8 qubits, an ``enum`` request that
the histogram would refuse, and for ``globality`` and ``decode`` a
``--postfn`` that names no decoding with ``--n`` qubits and ``--m``
actions, an ``--n`` above the command's qubit limit, or a ``--bits``
that is not an n-bit string; for ``bound``, which takes only ``--m``
and prints the closed-form bound, an odd ``--m``.

Each expensive computation runs once, and its command writes every
file that it supports.  ``train`` writes ``curve_seed<k>.csv`` and
``params_seed<k>.txt`` per seed and ``curve_aggregate.csv``; on a task
that :func:`qpglab.analysis.check_bound_task` covers it also writes
``bound_report.csv``, the exact accuracy of each trained checkpoint
against the softmax accuracy bound.  ``fim`` samples the FIMs once and
writes ``spectrum.csv``, ``fim_aggregate.csv`` and ``effdim.csv``; it
prints what it computed: the sets and states sampled, the eigenvalue
range of the aggregate, the mean raw trace per parameter (the scale
that the normalisation divides out) and its spread across sets, the
near-zero eigenvalue fraction and the largest data size's effective
dimension.

A command builds nothing itself: :func:`qpglab.config.load_config`
builds the environment, encoder, policy and state sampler once, before
any output directory is made, and the command runs on them.  This
module is the only one that writes files, all through :func:`_write`.
A CSV file starts with the command's own values and the fully resolved
configuration as ``#`` comment lines, and reruns with the same config
and seed are byte-identical.  A checkpoint ``params_seed<k>.txt`` has
one header line, ``n=<n> d=<d> entangler=<e>``, to which a softmax
policy adds ``kind=softmax weights=<M>``; then one value per line of
``policy.flat_trainables`` (theta, lam, then any action weights) with
full round-trip precision.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import analysis, config as config_mod, decode, policy as policy_mod, qsim, train as train_mod
from .config import ConfigError

# Largest qubit count whose per-bitstring EI ``globality --ei-dump`` prints.
EI_DUMP_QUBITS = 8


def _write(out_dir, name, rows, cfg=None, extra=()) -> None:
    """Write ``rows`` to ``out_dir/name`` below the provenance comments.

    The comments are the ``extra`` lines, then the resolved items of
    ``cfg`` when one is given.
    """
    lines = [f"# {line}" for line in extra]
    if cfg is not None:
        lines.extend(f"# {key} = {value}" for key, value in cfg.resolved_items())
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write("\n".join(lines + rows) + "\n")


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


def _checkpoint(result) -> list[str]:
    model = result.policy.model
    head = f"n={model.n_qubits} d={model.depth} entangler={model.entangler}"
    if isinstance(result.policy, policy_mod.SoftmaxObservablePolicy):
        head += f" kind=softmax weights={result.policy.num_actions}"
    flat = policy_mod.flat_trainables(result.policy, result.params)
    return [head] + [repr(float(v)) for v in flat]


def cmd_train(args) -> int:
    exp = config_mod.load_config(args.config)
    cfg = exp.config
    bound = analysis.check_bound_task(exp.env, exp.policy)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    seeds = (args.seed,) if args.seed is not None else cfg.seeds
    run = functools.partial(train_mod.train_run, exp.env, exp.encoder, exp.policy, cfg.train)
    if args.jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        # A spawned worker loads OpenBLAS afresh and reads this; a forked
        # one would inherit the thread pool of this process.
        preset = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        try:
            with ProcessPoolExecutor(args.jobs, mp_context=get_context("spawn")) as pool:
                results = list(pool.map(run, seeds))
        finally:
            if preset is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        results = list(map(run, seeds))

    for seed, result in zip(seeds, results):
        rows = ["episode,reward,avg20"]
        rows.extend(f"{rec.episode},{rec.reward!r},{rec.avg20!r}" for rec in result.records)
        _write(out_dir, f"curve_seed{seed}.csv", rows, cfg, [f"seed = {seed}"])
        _write(out_dir, f"params_seed{seed}.txt", _checkpoint(result))
    # Population std across seeds, episode by episode.
    rewards = np.array([[rec.reward for rec in result.records] for result in results])
    rows = ["episode,mean,std"]
    rows.extend(
        f"{ep},{float(col.mean())!r},{float(col.std())!r}" for ep, col in enumerate(rewards.T)
    )
    _write(out_dir, "curve_aggregate.csv", rows, cfg, [f"seeds = {','.join(map(str, seeds))}"])
    print(f"wrote {len(seeds)} learning curves to {out_dir}")
    if bound is None:
        return 0
    accuracies = [
        analysis.exact_accuracy(exp.env, exp.encoder, result.policy, result.params)
        for result in results
    ]
    within = [acc <= float(bound) + analysis.BOUND_SLACK for acc in accuracies]
    extra = [f"bound = {bound} ({float(bound)!r})", f"slack = {analysis.BOUND_SLACK!r}"]
    rows = ["seed,accuracy,within_bound"]
    rows.extend(f"{seed},{acc!r},{ok}" for seed, acc, ok in zip(seeds, accuracies, within))
    _write(out_dir, "bound_report.csv", rows, cfg, extra)
    print(f"bound {float(bound)!r}: {'all seeds within' if all(within) else 'VIOLATED'}")
    return 0 if all(within) else 3


def _parse_postfn(args, max_qubits: int) -> decode.PostProcessing:
    """The decoding that --postfn, --n and --m name; a bad one is a usage error.

    ``--n`` is checked against ``max_qubits`` before any table is built.
    """
    if args.n > max_qubits:
        raise ConfigError(f"{args.command} is limited to {max_qubits} qubits")
    return config_mod._checked("--postfn:", config_mod.build_postfn, args.postfn, args.n, args.m)


def cmd_globality(args) -> int:
    if args.ei_dump and args.n > EI_DUMP_QUBITS:
        raise ConfigError(f"--ei-dump is limited to {EI_DUMP_QUBITS} qubits")
    fn = _parse_postfn(args, decode.QUBIT_LIMIT)
    report = decode.globality(fn)
    print(f"globality = {report.value} ({float(report.value)!r})")
    if args.ei_dump:
        for b, action in enumerate(fn.table.tolist()):
            print(f"{format(b, f'0{fn.n_qubits}b')},{action},{report.ei[b]}")
    return 0


def cmd_enum(args) -> int:
    try:
        decode.check_histogram_request(args.n, args.m, args.mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    os.makedirs(args.out_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed or 0))
    hist = decode.globality_histogram(
        args.n, args.m, mode=args.mode, samples=args.samples, rng=rng
    )
    extra = [
        f"n = {args.n}",
        f"m = {args.m}",
        f"mode = {args.mode}",
        f"samples = {args.samples if args.mode == 'sampled' else hist.total}",
        f"seed = {args.seed or 0}",
    ]
    rows = ["g_value,count"]
    rows.extend(f"{float(value)!r},{count}" for value, count in sorted(hist.counts.items()))
    _write(args.out_dir, "histogram.csv", rows, extra=extra)
    census = decode.count_balanced_partitionings(args.n, args.m)
    print(f"{hist.total} partitionings examined of {census} total")
    return 0


def cmd_fim(args) -> int:
    exp = config_mod.load_config(args.config)
    cfg = exp.config
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fims = analysis.sample_fims(
        exp.policy, exp.state_sampler, cfg.analysis.param_sets, cfg.analysis.states, rng
    )
    os.makedirs(args.out_dir, exist_ok=True)
    extra = [f"seed = {seed}"]
    aggregate = fims.aggregate
    stats = analysis.spectrum_stats(aggregate, cfg.analysis.near_zero)
    rows = ["bucket_low,bucket_high,count"]
    rows.extend(f"{low!r},{high!r},{count}" for low, high, count in stats.buckets)
    _write(args.out_dir, "spectrum.csv", rows, cfg, extra)
    rows = [",".join(repr(float(v)) for v in row) for row in aggregate]
    _write(args.out_dir, "fim_aggregate.csv", rows, cfg, extra)
    report = analysis.effective_dimension(fims, cfg.analysis.data_sizes)
    rows = ["data_size,eff_dim,normalized"]
    rows.extend(
        f"{size},{float(value)!r},{float(norm)!r}"
        for size, value, norm in zip(report.data_sizes, report.values, report.normalized)
    )
    _write(args.out_dir, "effdim.csv", rows, cfg, extra)
    eigs = stats.eigenvalues
    per_parameter = fims.raw_traces / fims.dim
    print(f"sampled {len(per_parameter)} parameter sets x {cfg.analysis.states} states")
    print(f"aggregate eigenvalues from {float(eigs[0])!r} to {float(eigs[-1])!r}")
    print(
        f"raw trace per parameter: mean {float(per_parameter.mean())!r}, "
        f"std {float(per_parameter.std())!r} across sets"
    )
    print(
        f"near-zero eigenvalue fraction: {stats.near_zero_fraction!r} "
        f"(threshold {cfg.analysis.near_zero!r})"
    )
    print(f"effective dimension at {report.data_sizes[-1]}: {float(report.values[-1])!r}")
    return 0


def cmd_bound(args) -> int:
    bound = config_mod._checked("--m:", analysis.accuracy_bound, args.m)
    print(f"accuracy bound = {bound} ({float(bound)!r})")
    return 0


def cmd_decode(args) -> int:
    config_mod._checked("--bits:", decode.decode_bits_to_index, args.n, args.bits)
    print(decode.decode(_parse_postfn(args, qsim.MAX_QUBITS), args.bits))
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

    p = sub.add_parser("train", help="REINFORCE training, learning curves, bound report")
    add_common(p, config=True)
    p.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help="seeds trained in parallel, one process each; each worker runs "
        "OpenBLAS on one thread unless OPENBLAS_NUM_THREADS says otherwise",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("globality", help="globality of a post-processing function")
    p.add_argument("--postfn", required=True, help="global | msb | parity:<q> | table:<path>")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="qubit count")
    p.add_argument("--m", type=_int_at_least(2), required=True, help="action count")
    p.add_argument(
        "--ei-dump",
        action="store_true",
        help=f"print per-bitstring EI (n <= {EI_DUMP_QUBITS})",
    )
    p.set_defaults(func=cmd_globality)

    p = sub.add_parser("enum", help="histogram of globality over balanced partitionings")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(2), required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=_int_at_least(1), default=100000)
    add_common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("fim", help="Fisher information spectrum and effective dimension")
    add_common(p, config=True)
    p.set_defaults(func=cmd_fim)

    p = sub.add_parser("bound", help="softmax accuracy bound")
    p.add_argument("--m", type=_int_at_least(2), default=4, help="action count")
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
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
