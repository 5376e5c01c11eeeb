"""Experiment configuration: flat INI-style files into typed dataclasses.

Grammar: standard INI sections with ``key = value`` pairs.  ``SCHEMA``
is the one list of sections and keys: it maps every key to the parser
that types and bounds its value, and a section's parsed keys build its
block dataclass, whose defaults fill in every key a file leaves out.
Unknown sections and keys are rejected before any value is parsed.
Then bad values, a block's own checks, and every error that the run's
constructors (environment, encoder, policy, state sampler) raise on
the loaded config are rejected too, all before any compute and before
any output directory is made.  Values are scalars or comma-separated
lists, and numbers must be finite; ``%`` is a literal character.

Loading is also where an experiment is built: :func:`load_config`
returns the parsed config together with the environment, encoder,
policy and state sampler it describes, each built once, so a table or
map file is read once and every command uses the objects that were
validated.  :meth:`ExperimentConfig.resolved_items` lists the fully
resolved configuration, which ``qpglab.cli`` writes as ``# section.key
= value`` comment lines at the top of its output files for provenance.

Sections::

    [experiment]  seeds (distinct, non-negative)
    [env]         type + environment parameters
    [model]       n_qubits (required), depth, entangler
    [policy]      kind, postfn / beta + weights
    [train]       episodes, batch_size, learning rates, gamma, inits
    [analysis]    samplers, sample counts, data sizes, threshold
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis as analysis_mod, decode, envs, policy as policy_mod, train as train_mod
from .ansatz import ENTANGLERS, ModelConfig


class ConfigError(ValueError):
    """A configuration file failed validation."""


@dataclass
class EnvBlock:
    type: str = "bandits"
    num_states: int = 8
    num_actions: int = 2
    optimal_map: str = "blocks"
    reward: str = "pm1"
    map_file: str = ""
    horizon: int = 100
    slippery: bool = False
    reward_step: float = -1.0
    reward_hole: float = -100.0
    reward_goal: float = 100.0
    version: str = "v0"
    bounds: tuple = ()  # empty means envs.CARTPOLE_BOUNDS


@dataclass
class PolicyBlock:
    kind: str = "measurement"
    postfn: str = "global"
    beta: float = 1.0
    weight_init: float = 0.0
    z_qubits: tuple = ()  # empty means Z on all qubits


@dataclass
class AnalysisBlock:
    state_sampler: str = "normal:0.5"
    param_sets: int = 100
    states: int = 100
    data_sizes: tuple = (5000, 10000, 100000, 1000000)
    near_zero: float = analysis_mod.NEAR_ZERO_THRESHOLD


@dataclass
class ExperimentConfig:
    seeds: tuple = (0,)
    env: EnvBlock = field(default_factory=EnvBlock)
    model: ModelConfig = field(default_factory=lambda: ModelConfig(n_qubits=3))
    policy: PolicyBlock = field(default_factory=PolicyBlock)
    train: train_mod.Hyperparams = field(default_factory=train_mod.Hyperparams)
    analysis: AnalysisBlock = field(default_factory=AnalysisBlock)

    def resolved_items(self) -> list[tuple[str, str]]:
        """Deterministic ``(section.key, value)`` listing for provenance."""
        items = [("experiment.seeds", _fmt(self.seeds))]
        for section in _BLOCKS:
            block = vars(getattr(self, section))
            items.extend((f"{section}.{key}", _fmt(block[key])) for key in sorted(block))
        return items


# The dataclass each section's parsed keys build, in provenance order.
_BLOCKS = {
    "env": EnvBlock,
    "model": ModelConfig,
    "policy": PolicyBlock,
    "train": train_mod.Hyperparams,
    "analysis": AnalysisBlock,
}


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Value parsers: raw text to a typed value, or a ValueError saying why not


def _int(lo=None):
    def parse(raw) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected integer, got {raw!r}") from None
        if lo is not None and value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _float(raw) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"expected finite number, got {raw!r}")
    return value


def _bool(raw) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected boolean, got {raw!r}") from None


def _choice(*values):
    def parse(raw) -> str:
        if raw not in values:
            raise ValueError(f"must be one of {values}, got {raw!r}")
        return raw

    return parse


def _list(item, need=""):
    """Comma-separated entries, each through ``item``; ``need`` names a required one."""

    def parse(raw) -> tuple:
        values = tuple(item(v) for v in raw.replace(" ", "").split(",") if v)
        if need and not values:
            raise ValueError(f"need at least one {need}")
        return values

    return parse


def _seeds(raw) -> tuple:
    seeds = _list(_int(0), "seed")(raw)
    # Each seed names one run and one curve file; a repeat would be
    # averaged into the aggregate twice.
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ValueError(f"duplicate seed {_fmt(repeated)}")
    return seeds


def _data_size(raw) -> int:
    size = _int()(raw)
    analysis_mod.data_size_kappa(size)
    return size


def _z_qubits(raw) -> tuple:
    return () if raw == "all" else _list(_int())(raw)


SCHEMA = {
    "experiment": {"seeds": _seeds},
    "env": {
        "type": _choice("bandits", "frozenlake", "cartpole"),
        "num_states": _int(1),
        "num_actions": _int(2),
        "optimal_map": str,
        "reward": _choice(*envs.REWARD_SCHEMES),
        "map_file": str,
        "horizon": _int(1),
        "slippery": _bool,
        "reward_step": _float,
        "reward_hole": _float,
        "reward_goal": _float,
        "version": _choice("v0", "v1"),
        "bounds": _list(_float),
    },
    "model": {"n_qubits": _int(1), "depth": _int(1), "entangler": _choice(*ENTANGLERS)},
    "policy": {
        "kind": _choice("measurement", "softmax"),
        "postfn": str,
        "beta": _float,
        "weight_init": _float,
        "z_qubits": _z_qubits,
    },
    "train": {
        "episodes": _int(1),
        "batch_size": _int(1),
        "alpha_theta": _float,
        "alpha_lambda": _float,
        "alpha_w": _float,
        "gamma": _float,
        "theta_init": _choice("uniform", "normal"),
        "theta_scale": _float,
        "lambda_init": _float,
    },
    "analysis": {
        "state_sampler": str,
        "param_sets": _int(1),
        "states": _int(1),
        "data_sizes": _list(_data_size, "data size"),
        "near_zero": _float,
    },
}


def _checked(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, raising its failure as a ConfigError led by ``where``."""
    try:
        return build(*args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"{where} cannot read {exc.filename}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


@dataclass(eq=False)
class Experiment:
    """A loaded config and the run objects built from it."""

    config: ExperimentConfig
    env: object
    encoder: object
    policy: policy_mod.Policy
    state_sampler: object


def load_config(path) -> Experiment:
    """Parse, fully validate and build a config file; raises :class:`ConfigError`."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    parsed = {section: {} for section in SCHEMA}
    for section in parser.sections():
        for key, raw in parser[section].items():
            parsed[section][key] = _checked(f"[{section}] {key}:", SCHEMA[section][key], raw)
    if "n_qubits" not in parsed["model"]:
        raise ConfigError("[model] n_qubits is required")
    cfg = ExperimentConfig(
        **parsed["experiment"],
        **{s: _checked(f"[{s}]", block, **parsed[s]) for s, block in _BLOCKS.items()},
    )
    return _build(cfg)


def _build(cfg: ExperimentConfig) -> Experiment:
    """Build what a run uses, checking the pairings no constructor sees."""
    kind, n = cfg.env.type, cfg.model.n_qubits
    # Past the parsers, an env fails only on its map (CartPole cannot fail)
    # and a Born policy only on its postfn spec.
    env = _checked(f"[env] {'optimal_map' if kind == 'bandits' else 'map_file'}:", build_env, cfg)
    encoder = _checked("[env]", build_encoder, cfg)
    if kind == "cartpole":
        if encoder.output_dim != env.state_dim:
            raise ConfigError(f"[env] cartpole bounds must have {env.state_dim} entries")
        if n != env.state_dim:
            raise ConfigError(
                f"[model] n_qubits must equal the cartpole state dimension "
                f"{env.state_dim}, got {n}"
            )
    elif (1 << n) < env.num_states:
        raise ConfigError(f"[model] n_qubits={n} cannot binary-encode {env.num_states} states")

    where = "[policy] postfn:" if cfg.policy.kind == "measurement" else "[policy]"
    policy = _checked(where, build_policy, cfg, env.num_actions)
    sampler = _checked("[analysis] state_sampler:", build_state_sampler, cfg)
    return Experiment(cfg, env, encoder, policy, sampler)


def build_postfn(spec: str, n_qubits: int, num_actions: int) -> decode.PostProcessing:
    """Instantiate a post-processing function from its config spec string.

    ``global`` (recursive parity construction), ``msb``, ``parity:<q>``
    or ``table:<path>``.  The decoding must have ``num_actions`` actions;
    ``msb`` and ``parity:<q>`` have two.
    """
    if spec == "global":
        fn = decode.RecursiveParity(n_qubits, num_actions)
    elif spec == "msb":
        fn = decode.MostSignificantBit(n_qubits)
    elif spec.startswith("parity:"):
        try:
            q = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"parity:<q> needs an integer q, got {spec!r}") from None
        fn = decode.PrefixParity(n_qubits, q)
    elif spec.startswith("table:"):
        fn = decode.load_table(spec.split(":", 1)[1], num_actions)
        if fn.n_qubits != n_qubits:
            raise ValueError(f"table has {fn.n_qubits} qubits, expected {n_qubits}")
    else:
        raise ValueError(f"unknown postfn spec {spec!r}")
    if fn.num_actions != num_actions:
        raise ValueError(f"{spec} provides {fn.num_actions} actions, not {num_actions}")
    return fn


def build_env(cfg: ExperimentConfig):
    env = cfg.env
    if env.type == "bandits":
        mapping = envs.optimal_map(env.optimal_map, env.num_states, env.num_actions)
        return envs.ContextualBandits(env.num_states, env.num_actions, mapping, env.reward)
    if env.type == "frozenlake":
        rewards = envs.FrozenLakeRewards(env.reward_step, env.reward_hole, env.reward_goal)
        options = dict(rewards=rewards, horizon=env.horizon, slippery=env.slippery)
        if env.map_file:
            return envs.FrozenLake.from_file(env.map_file, **options)
        return envs.FrozenLake(**options)
    return envs.CartPole(env.version)


def build_encoder(cfg: ExperimentConfig):
    """Continuous angle encoding for CartPole, binary state encoding otherwise."""
    if cfg.env.type != "cartpole":
        return envs.BinaryEncoder(cfg.model.n_qubits)
    return envs.ContinuousEncoder(cfg.env.bounds or envs.CARTPOLE_BOUNDS)


def build_policy(cfg: ExperimentConfig, num_actions: int):
    pol = cfg.policy
    if pol.kind == "measurement":
        fn = build_postfn(pol.postfn, cfg.model.n_qubits, num_actions)
        return policy_mod.MeasurementPolicy(cfg.model, fn)
    weights = np.full(num_actions, pol.weight_init)
    z_qubits = pol.z_qubits or None
    return policy_mod.SoftmaxObservablePolicy(cfg.model, weights, pol.beta, z_qubits)


def build_state_sampler(cfg: ExperimentConfig):
    """Feature sampler from its spec: ``normal:<sigma>`` or ``uniform_angles``."""
    spec = cfg.analysis.state_sampler
    if spec.startswith("normal:"):
        sigma = float(spec.split(":", 1)[1])
        if not 0.0 <= sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
        return analysis_mod.normal_state_sampler(cfg.model.n_qubits, sigma)
    if spec == "uniform_angles":
        return analysis_mod.uniform_angle_state_sampler(cfg.model.n_qubits)
    raise ValueError(f"unknown spec {spec!r}")
