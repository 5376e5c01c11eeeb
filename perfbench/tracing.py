"""Span tracing for the benchmark's traced run.

The package is not instrumented.  Instead the traced run replaces
public functions of ``qpglab`` modules with timing wrappers.  This works
because the package calls its layers through module attributes
(``ansatz.run_batch``, ``policy_mod.sample_action``, ``qsim.apply_1q``)
or through module globals (``ansatz.prepare_state`` calls the global
``run_batch``), and both resolve at call time.  Environment steps are
timed through :class:`TracedEnv`, a proxy passed to ``train_run`` in
place of the environment.

Spans stay in memory as ``(span, parent, op, name, start, end, work)``
tuples, appended when the call returns; ``op`` is the index of the
benchmark operation (one training chunk, one FIM chunk, one decoding
pass) that the span belongs to.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function, work recorded on the span).  The work functions
# read positional arguments, which is how the package calls these.
LAYERS = (
    ("qsim", "apply_1q", lambda args, result: args[0].size),
    ("ansatz", "run_batch", lambda args, result: len(args[1])),
    ("ansatz", "shift_rows", lambda args, result: len(result[0])),
    ("ansatz", "prepare_state", None),
    ("policy", "sample_action", None),
    ("policy", "action_probs", None),
    ("policy", "trajectory_log_grads", lambda args, result: len(args[1])),
    ("train", "reinforce_gradient", None),
    ("train", "adam_amsgrad_step", None),
    ("analysis", "sample_fims", None),
    ("analysis", "spectrum_stats", None),
    ("analysis", "effective_dimension", None),
    ("decode", "globality", None),
)

# apply_1q reads and writes every complex128 amplitude once.
BYTES_PER_AMP = 2 * 16

# Per-layer metrics of the traced run, in report order: (name, unit).
# Times are shares of the traced wall time, so a layer that a workload
# never calls reads 0 rather than a time; seconds are share * trace.wall_s.
# Counts are totals over the traced operations; trace.work holds their
# work units (env steps, parameter sets, EI strings) to divide by.
LAYER_METRICS = (
    ("qsim.apply_1q.calls", "count"),
    ("qsim.apply_1q.self_share", "ratio"),
    ("qsim.apply_1q.amps", "count"),
    ("qsim.apply_1q.bytes_computed", "bytes"),
    ("ansatz.run_batch.calls", "count"),
    ("ansatz.run_batch.rows", "count"),
    ("ansatz.run_batch.self_share", "ratio"),
    ("ansatz.run_batch.rows_per_call", "rows/call"),
    ("ansatz.shift_rows.calls", "count"),
    ("ansatz.shift_rows.rows", "count"),
    ("ansatz.shift_rows.self_share", "ratio"),
    ("ansatz.prepare_state.calls", "count"),
    ("policy.sample_action.calls", "count"),
    ("policy.sample_action.self_share", "ratio"),
    ("policy.action_probs.calls", "count"),
    ("policy.action_probs.self_share", "ratio"),
    ("policy.trajectory_log_grads.calls", "count"),
    ("policy.trajectory_log_grads.steps", "count"),
    ("policy.trajectory_log_grads.self_share", "ratio"),
    ("policy.trajectory_log_grads.total_share", "ratio"),
    ("policy.trajectory_log_grads.rows_per_step", "rows/step"),
    ("envs.step.calls", "count"),
    ("envs.step.self_share", "ratio"),
    ("train.reinforce_gradient.calls", "count"),
    ("train.reinforce_gradient.total_share", "ratio"),
    ("train.adam_amsgrad_step.calls", "count"),
    ("train.adam_amsgrad_step.self_share", "ratio"),
    ("analysis.sample_fims.self_share", "ratio"),
    ("analysis.sample_fims.total_share", "ratio"),
    ("analysis.spectrum_stats.self_share", "ratio"),
    ("analysis.effective_dimension.self_share", "ratio"),
    ("decode.globality.calls", "count"),
    ("decode.globality.n10.self_share", "ratio"),
    ("decode.globality.n11.self_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.work", "count"),
)


class Tracer:
    """Collects spans from wrapped package functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, fn, name, work=None):
        """``fn`` recording one span per call under ``name``.

        ``name`` may be a function of the call's positional arguments.
        """
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1] if stack else -1
            label = name(args) if callable(name) else name
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((span, parent, tracer.op, label, start, clock(), 0))
                raise
            end = clock()
            stack.pop()
            amount = work(args, result) if work is not None else 0
            spans.append((span, parent, tracer.op, label, start, end, amount))
            return result

        return traced

    def install(self, qp) -> None:
        """Wrap every layer function that exists in the modules of ``qp``."""
        for module_name, attr, work in LAYERS:
            module = getattr(qp, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            name = f"{module_name}.{attr}"
            if (module_name, attr) == ("decode", "globality"):
                name = lambda args: f"decode.globality.n{args[0].n_qubits}"  # noqa: E731
            setattr(module, attr, self.wrap(fn, name, work))
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span's start."""
        lines = ["span,parent,op,name,start_s,end_s,work"]
        origin = min((s[4] for s in self.spans), default=0.0)
        for span, parent, op, name, start, end, work in sorted(self.spans):
            lines.append(
                f"{span},{parent},{op},{name},{start - origin!r},{end - origin!r},{work}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


class TracedEnv:
    """Environment proxy whose ``step`` records an ``envs.step`` span."""

    def __init__(self, env, tracer: Tracer):
        self._env = env
        self.step = tracer.wrap(env.step, "envs.step")

    def __getattr__(self, attr):
        return getattr(self._env, attr)


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    work: int = 0


def layer_stats(spans) -> dict:
    """Per-name calls, self time, inclusive time and summed work."""
    covered = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        covered[parent] += end - start
    stats: dict = defaultdict(LayerStats)
    for span, _, _, name, start, end, work in spans:
        entry = stats[name]
        entry.calls += 1
        entry.total_s += end - start
        entry.self_s += end - start - covered[span]
        entry.work += work
    return stats


def rows_under(spans, row_layer: str, ancestor: str) -> int:
    """Work of ``row_layer`` spans that run inside an ``ancestor`` span."""
    info = {span: (parent, name) for span, parent, _, name, _, _, _ in spans}
    total = 0
    for span, parent, _, name, _, _, work in spans:
        if name != row_layer:
            continue
        while parent != -1:
            parent, parent_name = info[parent]
            if parent_name == ancestor:
                total += work
                break
    return total


def layer_metrics(spans, traced_wall: float, untraced_op_s: float, traced_op_s: float,
                  work: float) -> dict:
    """Every metric of :data:`LAYER_METRICS` from one traced phase.

    ``traced_wall`` is the summed wall time of the traced operations and
    ``work`` their work units; ``untraced_op_s`` and ``traced_op_s`` are
    the summed (rescaled) times of the same operations run without and
    with tracing.
    """
    stats = layer_stats(spans)

    def get(name: str) -> LayerStats:
        return stats.get(name, LayerStats())

    def share(seconds: float) -> float:
        return seconds / traced_wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    apply_1q = get("qsim.apply_1q")
    run_batch = get("ansatz.run_batch")
    shift = get("ansatz.shift_rows")
    sample = get("policy.sample_action")
    probs = get("policy.action_probs")
    grads = get("policy.trajectory_log_grads")
    step = get("envs.step")
    globality_calls = sum(s.calls for n, s in stats.items() if n.startswith("decode.globality."))
    grad_rows = rows_under(spans, "ansatz.run_batch", "policy.trajectory_log_grads")
    values = {
        "qsim.apply_1q.calls": apply_1q.calls,
        "qsim.apply_1q.self_share": share(apply_1q.self_s),
        "qsim.apply_1q.amps": apply_1q.work,
        "qsim.apply_1q.bytes_computed": apply_1q.work * BYTES_PER_AMP,
        "ansatz.run_batch.calls": run_batch.calls,
        "ansatz.run_batch.rows": run_batch.work,
        "ansatz.run_batch.self_share": share(run_batch.self_s),
        "ansatz.run_batch.rows_per_call": ratio(run_batch.work, run_batch.calls),
        "ansatz.shift_rows.calls": shift.calls,
        "ansatz.shift_rows.rows": shift.work,
        "ansatz.shift_rows.self_share": share(shift.self_s),
        "ansatz.prepare_state.calls": get("ansatz.prepare_state").calls,
        "policy.sample_action.calls": sample.calls,
        "policy.sample_action.self_share": share(sample.self_s),
        "policy.action_probs.calls": probs.calls,
        "policy.action_probs.self_share": share(probs.self_s),
        "policy.trajectory_log_grads.calls": grads.calls,
        "policy.trajectory_log_grads.steps": grads.work,
        "policy.trajectory_log_grads.self_share": share(grads.self_s),
        "policy.trajectory_log_grads.total_share": share(grads.total_s),
        "policy.trajectory_log_grads.rows_per_step": ratio(grad_rows, grads.work),
        "envs.step.calls": step.calls,
        "envs.step.self_share": share(step.self_s),
        "train.reinforce_gradient.calls": get("train.reinforce_gradient").calls,
        "train.reinforce_gradient.total_share": share(get("train.reinforce_gradient").total_s),
        "train.adam_amsgrad_step.calls": get("train.adam_amsgrad_step").calls,
        "train.adam_amsgrad_step.self_share": share(get("train.adam_amsgrad_step").self_s),
        "analysis.sample_fims.self_share": share(get("analysis.sample_fims").self_s),
        "analysis.sample_fims.total_share": share(get("analysis.sample_fims").total_s),
        "analysis.spectrum_stats.self_share": share(get("analysis.spectrum_stats").self_s),
        "analysis.effective_dimension.self_share": share(
            get("analysis.effective_dimension").self_s
        ),
        "decode.globality.calls": globality_calls,
        "decode.globality.n10.self_share": share(get("decode.globality.n10").self_s),
        "decode.globality.n11.self_share": share(get("decode.globality.n11").self_s),
        "trace.coverage": share(sum(s.self_s for s in stats.values())),
        "trace.overhead_ratio": ratio(traced_op_s, untraced_op_s),
        "trace.wall_s": traced_wall,
        "trace.work": work,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}
