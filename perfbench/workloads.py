"""The benchmark's four workloads, one per kind of run in the paper.

Each workload is set up from a namespace ``qp`` of freshly imported
``qpglab`` modules and then runs operations back to back.  One call of
:meth:`op` is one timed chunk of ``ops`` operations (updates, FIM
parameter sets or decodings); it returns an :class:`OpOutput` with the
work units its throughput counts (env steps, parameter sets or
extracted-information strings) and the output that :meth:`check`
later verifies.  ``op(index)`` is a pure function of the
workload seed and ``index``, so the traced run can replay the exact
operations of the untraced one.

Why these four (each is the only user, or the control, of a layer):

* ``cartpole_train`` -- the paper's headline RL task.  Gradient
  construction (177 circuit rows per env step at n=4, d=5) and the
  single-row rollout both carry large shares.
* ``bandit_train`` -- the accuracy-bound experiment and the only
  workload on the softmax path: 1-step episodes, small gradient calls
  dominated by per-call overhead.
* ``fim_effdim`` -- the capacity analysis: one large gradient call per
  parameter set plus one ``action_probs`` call per state; no
  environment and no optimiser.
* ``decode_globality`` -- globality of decodings at n=10 (bitmask path)
  and n=11 (scan path); runs no circuit, so it is the control for
  circuit-side changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import tracing


@dataclass
class OpOutput:
    work: float
    value: object


class Workload:
    """Defaults for workloads without an environment to trace."""

    name: str
    work_name: str
    ops: int  # operations per chunk
    pass_ops = 1  # chunks per throughput sample

    def instrument(self, tracer) -> None:
        pass

    def check_trace(self, outs, layers) -> bool:
        return True


def chunk_seed(seed: int, index: int) -> int:
    """Seed of chunk ``index``: distinct per chunk, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class TrainWorkload(Workload):
    """``train.train_run`` in chunks of ``episodes``, each from a fresh seed."""

    work_name = "train_steps_per_s"

    def __init__(self, episodes: int, batch_size: int = 10):
        self.episodes = episodes
        self.batch_size = batch_size
        self.ops = episodes // batch_size

    def setup(self, qp, seed: int) -> None:
        self.qp = qp
        self.seed = seed
        self.env, self.encoder, self.policy = self.build(qp)
        self.hyper = qp.train.Hyperparams(batch_size=self.batch_size, episodes=self.episodes)
        # One episode and one update fill every lazy cache on the path.
        # A fixed seed keeps the episode, and so the set-up work, the
        # same for every workload seed.
        warm = qp.train.Hyperparams(batch_size=1, episodes=1)
        qp.train.train_run(self.env, self.encoder, self.policy, warm, 0)

    def instrument(self, tracer) -> None:
        self.env = tracing.TracedEnv(self.env, tracer)

    def op(self, index: int) -> OpOutput:
        result = self.qp.train.train_run(
            self.env, self.encoder, self.policy, self.hyper, chunk_seed(self.seed, index)
        )
        return OpOutput(self.steps(result), result)

    def check(self, out: OpOutput) -> int:
        """Failed updates of one chunk: all of them if the chunk is wrong."""
        params = out.value.params
        ok = bool(np.isfinite(params.theta).all() and np.isfinite(params.lam).all())
        return 0 if ok and self.check_result(out.value) else self.ops

    def check_trace(self, outs, layers) -> bool:
        """Steps counted from the outputs equal the traced env steps."""
        return sum(out.work for out in outs) == layers["envs.step.calls"][0]


class CartPoleTrain(TrainWorkload):
    name = "cartpole_train"

    def build(self, qp):
        model = qp.ansatz.ModelConfig(n_qubits=4, depth=5, entangler="cz")
        policy = qp.policy.MeasurementPolicy(model, qp.decode.RecursiveParity(4, 2))
        return qp.envs.CartPole("v0"), qp.envs.cartpole_encoder(), policy

    def steps(self, result) -> int:
        # CartPole pays +1 per step, so an episode's reward is its length.
        return int(sum(rec.reward for rec in result.records))

    def check_result(self, result) -> bool:
        return all(
            float(rec.reward).is_integer() and 1 <= rec.reward <= 200 for rec in result.records
        )


class BanditTrain(TrainWorkload):
    name = "bandit_train"

    def build(self, qp):
        env = qp.envs.ContextualBandits(8, 4, qp.envs.optimal_map("blocks", 8, 4), "acc01")
        model = qp.ansatz.ModelConfig(n_qubits=3, depth=2, entangler="cz")
        policy = qp.policy.SoftmaxObservablePolicy(model, np.zeros(4))
        return env, qp.envs.BinaryEncoder(3), policy

    def steps(self, result) -> int:
        return len(result.records)

    def check_result(self, result) -> bool:
        # The accuracy bound is a theorem for this policy family.
        accuracy = self.qp.analysis.exact_accuracy(
            self.env, self.encoder, result.policy, result.params
        )
        return accuracy <= float(self.qp.analysis.accuracy_bound(4)) + 0.02


class FimEffdim(Workload):
    """``sample_fims`` -> ``spectrum_stats`` -> ``effective_dimension``.

    Analysis defaults: Born ``global`` decoding, n=4, d=3, ``normal:0.5``
    states, 100 states per parameter set, the default data sizes.  A
    chunk samples ``param_sets`` sets.
    """

    name = "fim_effdim"
    work_name = "fim_sets_per_s"

    def __init__(self, param_sets: int, states: int = 100,
                 data_sizes=(5000, 10000, 100000, 1000000)):
        self.param_sets = param_sets
        self.ops = param_sets
        self.states = states
        self.data_sizes = data_sizes

    def setup(self, qp, seed: int) -> None:
        self.qp = qp
        self.seed = seed
        model = qp.ansatz.ModelConfig(n_qubits=4, depth=3, entangler="cz")
        self.policy = qp.policy.MeasurementPolicy(model, qp.decode.RecursiveParity(4, 2))
        self.sampler = qp.analysis.normal_state_sampler(4, 0.5)
        self.run(1, min(self.states, 10), np.random.default_rng(seed))

    def run(self, param_sets: int, states: int, rng):
        analysis = self.qp.analysis
        fims = analysis.sample_fims(self.policy, self.sampler, param_sets, states, rng)
        analysis.spectrum_stats(fims.aggregate)
        report = analysis.effective_dimension(fims, self.data_sizes)
        return fims, report

    def op(self, index: int) -> OpOutput:
        rng = np.random.default_rng(chunk_seed(self.seed, index))
        return OpOutput(self.param_sets, self.run(self.param_sets, self.states, rng))

    def check(self, out: OpOutput) -> int:
        fims, report = out.value
        tol = self.qp.analysis.PSD_TOLERANCE
        mean_trace = float(np.mean([np.trace(m) for m in fims.per_set]))
        chunk_ok = (
            len(fims.per_set) == self.ops
            and abs(mean_trace - fims.dim) <= 1e-9 * fims.dim
            and all(math.isfinite(v) and v > 0 for v in map(float, report.values))
        )
        if not chunk_ok:
            return self.ops
        return sum(
            not (np.abs(m - m.T).max() <= tol and np.linalg.eigvalsh(m).min() >= -tol)
            for m in fims.per_set
        )


# (label, builder, closed-form globality).  The n=10 cases take the
# bitmask path, the n=11 ones the scan path; full parity at n=11 is
# left out as too slow to repeat.
DECODE_CASES = (
    ("RecursiveParity(10, 2)", lambda d: d.RecursiveParity(10, 2), 10),
    ("RecursiveParity(10, 8)", lambda d: d.RecursiveParity(10, 8), 10),
    ("PrefixParity(10, 6)", lambda d: d.PrefixParity(10, 6), 6),
    ("MostSignificantBit(11)", lambda d: d.MostSignificantBit(11), 1),
    ("PrefixParity(11, 2)", lambda d: d.PrefixParity(11, 2), 2),
)


class DecodeGlobality(Workload):
    """``decode.globality`` of one case per chunk; a pass covers every case.

    Deterministic: the seed is not used.
    """

    name = "decode_globality"
    work_name = "ei_strings_per_s"
    ops = 1

    def __init__(self, cases=DECODE_CASES):
        self.cases = cases
        self.pass_ops = len(cases)

    def setup(self, qp, seed: int) -> None:
        self.qp = qp
        # The first call at the largest bitmask size builds the
        # completion-mask cache that every CLI invocation pays.
        qp.decode.globality(self.cases[0][1](qp.decode))

    def op(self, index: int) -> OpOutput:
        _, build, expected = self.cases[index % len(self.cases)]
        fn = build(self.qp.decode)
        return OpOutput(1 << fn.n_qubits, (self.qp.decode.globality(fn).value, expected))

    def check(self, out: OpOutput) -> int:
        value, expected = out.value
        return int(value != expected)

def full_size() -> dict:
    """The workloads at the sizes the benchmark measures."""
    return {
        w.name: w
        for w in (
            CartPoleTrain(episodes=10),
            BanditTrain(episodes=200),
            FimEffdim(param_sets=2),
            DecodeGlobality(),
        )
    }
