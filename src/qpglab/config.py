"""Experiment configuration: flat INI-style files into typed dataclasses.

Grammar: standard INI sections with ``key = value`` pairs.  Sections
and keys are fixed.  Unknown ones and invalid values, down to the
``[analysis]`` sampler spec and data sizes, are rejected before any
compute and before any output directory is made.  All values are
scalars or comma-separated lists, and every field has a documented
default, so a config file only states what deviates.  The
fully resolved configuration is embedded as ``# section.key = value``
comment lines at the top of every output file for provenance.

Sections::

    [experiment]  seeds (distinct, non-negative)
    [env]         type + environment parameters + encoder choice
    [model]       n_qubits, depth, entangler
    [policy]      kind, postfn / beta + weights
    [train]       episodes, batch_size, learning rates, gamma, inits
    [analysis]    samplers, sample counts, data sizes, threshold
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from . import analysis as analysis_mod, decode, envs, policy as policy_mod, train as train_mod
from .ansatz import ModelConfig


class ConfigError(ValueError):
    """A configuration file failed validation."""


_KNOWN_KEYS = {
    "experiment": {"seeds"},
    "env": {
        "type",
        "num_states",
        "num_actions",
        "optimal_map",
        "reward",
        "map_file",
        "horizon",
        "slippery",
        "reward_step",
        "reward_hole",
        "reward_goal",
        "version",
        "encoder",
        "bounds",
    },
    "model": {"n_qubits", "depth", "entangler"},
    "policy": {"kind", "postfn", "beta", "weight_init", "z_qubits"},
    "train": {
        "episodes",
        "batch_size",
        "alpha_theta",
        "alpha_lambda",
        "alpha_w",
        "gamma",
        "theta_init",
        "theta_scale",
        "lambda_init",
    },
    "analysis": {"state_sampler", "param_sets", "states", "data_sizes", "near_zero"},
}


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
    encoder: str = ""
    bounds: tuple = ()


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
    near_zero: float = 1e-7


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
        items: list[tuple[str, str]] = [("experiment.seeds", _fmt(self.seeds))]
        for section, block in (
            ("env", self.env),
            ("model", self.model),
            ("policy", self.policy),
            ("train", self.train),
            ("analysis", self.analysis),
        ):
            for key in sorted(vars(block)):
                items.append((f"{section}.{key}", _fmt(getattr(block, key))))
        return items


def _fmt(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _int(section, key, raw, lo=None, hi=None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected integer, got {raw!r}") from None
    if lo is not None and value < lo:
        raise ConfigError(f"[{section}] {key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"[{section}] {key}: must be <= {hi}, got {value}")
    return value


def _float(section, key, raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected number, got {raw!r}") from None


def _bool(section, key, raw) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: expected boolean, got {raw!r}")


def _choice(section, key, raw, choices) -> str:
    value = raw.strip()
    if value not in choices:
        raise ConfigError(f"[{section}] {key}: must be one of {choices}, got {value!r}")
    return value


def _int_list(section, key, raw) -> tuple:
    try:
        return tuple(int(v) for v in raw.replace(" ", "").split(",") if v)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected integer list, got {raw!r}") from None


def _float_list(section, key, raw) -> tuple:
    try:
        return tuple(float(v) for v in raw.replace(" ", "").split(",") if v)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected number list, got {raw!r}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a config file; raises :class:`ConfigError`."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")

    cfg = ExperimentConfig()
    get = parser.get

    if parser.has_option("experiment", "seeds"):
        cfg.seeds = _int_list("experiment", "seeds", get("experiment", "seeds"))
        if not cfg.seeds:
            raise ConfigError("[experiment] seeds: need at least one seed")
        if min(cfg.seeds) < 0:
            raise ConfigError(f"[experiment] seeds: must be >= 0, got {min(cfg.seeds)}")
        # Each seed names one run and one curve file; a repeat would be
        # averaged into the aggregate twice.
        repeated = sorted({s for s in cfg.seeds if cfg.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"[experiment] seeds: duplicate seed {_fmt(repeated)}")

    env = cfg.env
    if parser.has_section("env"):
        sec = parser["env"]
        env.type = _choice("env", "type", sec.get("type", env.type), ("bandits", "frozenlake", "cartpole"))
        if "num_states" in sec:
            env.num_states = _int("env", "num_states", sec["num_states"], lo=1)
        if "num_actions" in sec:
            env.num_actions = _int("env", "num_actions", sec["num_actions"], lo=2)
        env.optimal_map = sec.get("optimal_map", env.optimal_map)
        if "reward" in sec:
            env.reward = _choice("env", "reward", sec["reward"], envs.REWARD_SCHEMES)
        env.map_file = sec.get("map_file", env.map_file)
        if "horizon" in sec:
            env.horizon = _int("env", "horizon", sec["horizon"], lo=1)
        if "slippery" in sec:
            env.slippery = _bool("env", "slippery", sec["slippery"])
        for key in ("reward_step", "reward_hole", "reward_goal"):
            if key in sec:
                setattr(env, key, _float("env", key, sec[key]))
        if "version" in sec:
            env.version = _choice("env", "version", sec["version"], ("v0", "v1"))
        if "encoder" in sec:
            env.encoder = _choice("env", "encoder", sec["encoder"], ("binary", "continuous"))
        if "bounds" in sec:
            env.bounds = _float_list("env", "bounds", sec["bounds"])
    if not env.encoder:
        env.encoder = "continuous" if env.type == "cartpole" else "binary"

    if parser.has_section("model"):
        sec = parser["model"]
        if "n_qubits" not in sec:
            raise ConfigError("[model] n_qubits is required")
        try:
            cfg.model = ModelConfig(
                n_qubits=_int("model", "n_qubits", sec["n_qubits"], lo=1),
                depth=_int("model", "depth", sec.get("depth", "1"), lo=1),
                entangler=_choice("model", "entangler", sec.get("entangler", "cz"), ("cz", "cx")),
            )
        except ValueError as exc:
            raise ConfigError(f"[model] {exc}") from None
    else:
        raise ConfigError("[model] section with n_qubits is required")

    pol = cfg.policy
    if parser.has_section("policy"):
        sec = parser["policy"]
        pol.kind = _choice("policy", "kind", sec.get("kind", pol.kind), ("measurement", "softmax"))
        pol.postfn = sec.get("postfn", pol.postfn)
        if "beta" in sec:
            pol.beta = _float("policy", "beta", sec["beta"])
        if "weight_init" in sec:
            pol.weight_init = _float("policy", "weight_init", sec["weight_init"])
        if "z_qubits" in sec and sec["z_qubits"].strip() != "all":
            pol.z_qubits = _int_list("policy", "z_qubits", sec["z_qubits"])

    if parser.has_section("train"):
        sec = parser["train"]
        kwargs = {}
        for key, conv in (
            ("episodes", lambda r: _int("train", "episodes", r, lo=1)),
            ("batch_size", lambda r: _int("train", "batch_size", r, lo=1)),
            ("alpha_theta", lambda r: _float("train", "alpha_theta", r)),
            ("alpha_lambda", lambda r: _float("train", "alpha_lambda", r)),
            ("alpha_w", lambda r: _float("train", "alpha_w", r)),
            ("gamma", lambda r: _float("train", "gamma", r)),
            ("theta_scale", lambda r: _float("train", "theta_scale", r)),
            ("lambda_init", lambda r: _float("train", "lambda_init", r)),
        ):
            if key in sec:
                kwargs[key] = conv(sec[key])
        if "theta_init" in sec:
            kwargs["theta_init"] = _choice(
                "train", "theta_init", sec["theta_init"], ("uniform", "normal")
            )
        try:
            cfg.train = train_mod.Hyperparams(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[train] {exc}") from None

    ana = cfg.analysis
    if parser.has_section("analysis"):
        sec = parser["analysis"]
        if "state_sampler" in sec:
            ana.state_sampler = sec["state_sampler"].strip()
        if "param_sets" in sec:
            ana.param_sets = _int("analysis", "param_sets", sec["param_sets"], lo=1)
        if "states" in sec:
            ana.states = _int("analysis", "states", sec["states"], lo=1)
        if "data_sizes" in sec:
            ana.data_sizes = _int_list("analysis", "data_sizes", sec["data_sizes"])
        if "near_zero" in sec:
            ana.near_zero = _float("analysis", "near_zero", sec["near_zero"])

    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig) -> None:
    env, model, pol = cfg.env, cfg.model, cfg.policy
    n = model.n_qubits
    if env.type == "cartpole":
        if env.encoder != "continuous":
            raise ConfigError("[env] cartpole needs the continuous encoder")
        bounds = env.bounds or envs.CARTPOLE_BOUNDS
        if len(bounds) != 4:
            raise ConfigError("[env] cartpole bounds must have 4 entries")
        if n != 4:
            raise ConfigError(
                f"[model] n_qubits must equal the cartpole state dimension 4, got {n}"
            )
        num_actions = 2
    elif env.type == "frozenlake":
        num_actions = 4
        lake = _build_lake(env)
        if env.encoder != "binary":
            raise ConfigError("[env] frozenlake needs the binary encoder")
        if (1 << n) < lake.num_states:
            raise ConfigError(
                f"[model] n_qubits={n} cannot binary-encode {lake.num_states} cells"
            )
    else:
        num_actions = env.num_actions
        if env.encoder != "binary":
            raise ConfigError("[env] bandits need the binary encoder")
        if (1 << n) < env.num_states:
            raise ConfigError(
                f"[model] n_qubits={n} cannot binary-encode {env.num_states} states"
            )
        try:
            envs.optimal_map(env.optimal_map, env.num_states, env.num_actions)
        except ValueError as exc:
            raise ConfigError(f"[env] optimal_map: {exc}") from None

    if pol.kind == "measurement":
        try:
            fn = build_postfn(pol.postfn, n, num_actions)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[policy] postfn: {exc}") from None
        if fn.num_actions != num_actions:
            raise ConfigError(
                f"[policy] postfn provides {fn.num_actions} actions, "
                f"environment needs {num_actions}"
            )
    else:
        for q in pol.z_qubits:
            if not 0 <= q < n:
                raise ConfigError(f"[policy] z_qubits entry {q} out of range")

    try:
        build_state_sampler(cfg)
    except ValueError as exc:
        raise ConfigError(f"[analysis] state_sampler: {exc}") from None
    if not cfg.analysis.data_sizes:
        raise ConfigError("[analysis] data_sizes: need at least one data size")
    for size in cfg.analysis.data_sizes:
        try:
            analysis_mod.data_size_kappa(size)
        except ValueError as exc:
            raise ConfigError(f"[analysis] data_sizes: {exc}") from None


def _build_lake(env: EnvBlock) -> envs.FrozenLake:
    rewards = envs.FrozenLakeRewards(env.reward_step, env.reward_hole, env.reward_goal)
    if env.map_file:
        return envs.FrozenLake.from_file(
            env.map_file, rewards=rewards, horizon=env.horizon, slippery=env.slippery
        )
    return envs.FrozenLake(rewards=rewards, horizon=env.horizon, slippery=env.slippery)


def build_postfn(spec: str, n_qubits: int, num_actions: int) -> decode.PostProcessing:
    """Instantiate a post-processing function from its config spec string.

    ``global`` (recursive parity construction), ``msb``, ``parity:<q>``
    or ``table:<path>``.
    """
    if spec == "global":
        return decode.RecursiveParity(n_qubits, num_actions)
    if spec == "msb":
        return decode.MostSignificantBit(n_qubits)
    if spec.startswith("parity:"):
        return decode.PrefixParity(n_qubits, int(spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        fn = decode.load_table(spec.split(":", 1)[1], num_actions)
        if fn.n_qubits != n_qubits:
            raise ValueError(f"table has {fn.n_qubits} qubits, expected {n_qubits}")
        return fn
    raise ValueError(f"unknown postfn spec {spec!r}")


def build_env(cfg: ExperimentConfig):
    env = cfg.env
    if env.type == "bandits":
        mapping = envs.optimal_map(env.optimal_map, env.num_states, env.num_actions)
        return envs.ContextualBandits(env.num_states, env.num_actions, mapping, env.reward)
    if env.type == "frozenlake":
        return _build_lake(env)
    return envs.CartPole(env.version)


def build_encoder(cfg: ExperimentConfig):
    if cfg.env.encoder == "binary":
        return envs.BinaryEncoder(cfg.model.n_qubits)
    bounds = cfg.env.bounds or envs.CARTPOLE_BOUNDS
    return envs.ContinuousEncoder(bounds)


def build_policy(cfg: ExperimentConfig):
    environment = build_env(cfg)
    num_actions = environment.num_actions
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
        if not sigma >= 0.0:
            raise ValueError(f"sigma must be >= 0, got {sigma!r}")
        return analysis_mod.normal_state_sampler(cfg.model.n_qubits, sigma)
    if spec == "uniform_angles":
        return analysis_mod.uniform_angle_state_sampler(cfg.model.n_qubits)
    raise ValueError(f"unknown spec {spec!r}")
