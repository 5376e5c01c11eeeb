"""Benchmark environments and feature encoders.

Environments are stateless transitions, so one object serves any
number of episodes at once: ``reset(rng)`` returns an initial state
and ``step(state, action, rng)`` returns ``(state, reward, terminal)``
without touching the state it was given.  Every random draw of an
episode comes from the generator passed in, which the runner keeps
per episode.  ``terminal`` marks a transition that ends the task (a
hole, the goal, a fallen pole, a bandit's single decision); the runner
in :mod:`qpglab.train` also ends every episode after ``horizon``
steps, and no environment counts steps.  States are the observations:
an index for the discrete tasks, a fresh array for CartPole.

Encoders map raw observations to the length-n feature vectors consumed
by the circuit; features are listed in wire order (the first feature
drives the uppermost wire, i.e. the most significant measured bit).
An encoder takes one observation or a batch of them, so a lockstep
rollout encodes all its live episodes in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REWARD_SCHEMES = ("pm1", "acc01")


def optimal_map(kind: str, num_states: int, num_actions: int) -> np.ndarray:
    """Named state-to-optimal-action assignments for bandit tasks.

    ``blocks`` gives contiguous equal blocks (state s -> s * M // S),
    ``mod`` cycles (s -> s mod M), ``bit:<j>`` uses bit j of the state
    index (two actions), and ``list:<a0,a1,...>`` is explicit.
    """
    if kind == "blocks":
        return np.arange(num_states) * num_actions // num_states
    if kind == "mod":
        return np.arange(num_states) % num_actions
    if kind.startswith("bit:"):
        if num_actions != 2:
            raise ValueError("bit:<j> maps need exactly 2 actions")
        # A bit no state index sets would make action 0 optimal everywhere.
        bits = (num_states - 1).bit_length()
        try:
            j = int(kind.split(":", 1)[1])
        except ValueError:
            j = -1  # not an integer: refused as out of range
        if not 0 <= j < bits:
            raise ValueError(f"{kind!r} needs a bit index j with 0 <= j < {bits}")
        return (np.arange(num_states) >> j) & 1
    if kind.startswith("list:"):
        values = np.array([int(v) for v in kind.split(":", 1)[1].split(",")])
        if len(values) != num_states:
            raise ValueError(f"list map needs {num_states} entries, got {len(values)}")
        return values
    raise ValueError(f"unknown optimal map {kind!r}")


class ContextualBandits:
    """Single-step task: a uniformly random state, one rewarded action.

    Rewards are +1/-1 (``pm1``) or 1/0 (``acc01``) for the optimal /
    any other action, so under ``acc01`` the expected reward equals the
    share of optimally answered states.
    """

    def __init__(self, num_states: int, num_actions: int, optimal, reward_scheme: str = "pm1"):
        optimal = np.asarray(optimal, dtype=np.int64)
        if optimal.shape != (num_states,):
            raise ValueError(f"optimal map must assign all {num_states} states")
        if optimal.min() < 0 or optimal.max() >= num_actions:
            raise ValueError("optimal actions out of range")
        if reward_scheme not in REWARD_SCHEMES:
            raise ValueError(f"reward scheme must be one of {REWARD_SCHEMES}")
        self.num_states = num_states
        self.num_actions = num_actions
        self.optimal = optimal
        self.reward_scheme = reward_scheme
        self.horizon = 1

    def reset(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.num_states))

    def step(self, state: int, action: int, rng: np.random.Generator | None = None):
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} out of range")
        hit = action == self.optimal[state]
        if self.reward_scheme == "pm1":
            reward = 1.0 if hit else -1.0
        else:
            reward = 1.0 if hit else 0.0
        return state, reward, True

    def is_uniform(self) -> bool:
        """Equal-size optimal-action preimages; with the uniform state
        draw, each action's state set is then visited 1/M of the time."""
        sizes = np.bincount(self.optimal, minlength=self.num_actions)
        return bool((sizes == self.num_states // self.num_actions).all()) and (
            self.num_states % self.num_actions == 0
        )


DEFAULT_LAKE_MAP = ("SFFF", "FHFH", "FFFH", "HFFG")

# Action order: left, down, right, up.
_LAKE_MOVES = ((0, -1), (1, 0), (0, 1), (-1, 0))


@dataclass
class FrozenLakeRewards:
    step: float = -1.0
    hole: float = -100.0
    goal: float = 100.0


class FrozenLake:
    """Deterministic gridworld over {start, frozen, hole, goal} cells.

    Moves that would leave the grid keep the position unchanged; a hole
    or the goal is terminal, and the runner ends other episodes at the
    horizon.  With ``slippery`` on, the intended move is replaced by one
    of the two perpendicular moves with probability 1/3 each, drawn from
    the episode's generator.
    """

    def __init__(
        self,
        grid=DEFAULT_LAKE_MAP,
        rewards: FrozenLakeRewards | None = None,
        horizon: int = 100,
        slippery: bool = False,
    ):
        grid = tuple(grid)
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if rows == 0 or any(len(r) != cols for r in grid):
            raise ValueError("grid rows must be non-empty and equal length")
        cells = "".join(grid)
        if set(cells) - set("SFHG"):
            raise ValueError("grid may only contain S, F, H, G cells")
        if cells.count("S") != 1 or cells.count("G") != 1:
            raise ValueError("grid needs exactly one start and one goal")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.grid = grid
        self.rows = rows
        self.cols = cols
        self.start = cells.index("S")
        self.rewards = rewards or FrozenLakeRewards()
        self.horizon = horizon
        self.slippery = slippery
        self.num_actions = 4
        self.num_states = rows * cols

    @classmethod
    def from_file(cls, path, **kwargs) -> "FrozenLake":
        with open(path) as fh:
            grid = [line.strip() for line in fh if line.strip()]
        return cls(grid, **kwargs)

    def cell(self, index: int) -> str:
        return self.grid[index // self.cols][index % self.cols]

    def reset(self, rng: np.random.Generator) -> int:
        return self.start

    def step(self, state: int, action: int, rng: np.random.Generator | None = None):
        if not 0 <= action < 4:
            raise ValueError(f"action {action} out of range")
        if self.slippery:
            if rng is None:
                raise ValueError("slippery dynamics need an rng")
            roll = rng.integers(3)
            if roll == 1:
                action = (action - 1) % 4
            elif roll == 2:
                action = (action + 1) % 4
        dr, dc = _LAKE_MOVES[action]
        r, c = divmod(state, self.cols)
        nr, nc = r + dr, c + dc
        pos = nr * self.cols + nc if 0 <= nr < self.rows and 0 <= nc < self.cols else state
        kind = self.cell(pos)
        if kind == "H":
            return pos, self.rewards.hole, True
        if kind == "G":
            return pos, self.rewards.goal, True
        return pos, self.rewards.step, False


# Classic cart-pole physical constants (reference classic-control dynamics).
_GRAVITY = 9.8
_CART_MASS = 1.0
_POLE_MASS = 0.1
_POLE_HALF_LENGTH = 0.5
_FORCE = 10.0
_DT = 0.02
_X_LIMIT = 2.4
_ANGLE_LIMIT = 12.0 * math.pi / 180.0


class CartPole:
    """Pole balancing with Euler-integrated classic dynamics.

    State is (cart position, cart velocity, pole angle, pole angular
    velocity); actions push the cart with -10 N (0) or +10 N (1).  The
    episode fails when |x| > 2.4 m or |angle| > 12 degrees and is
    otherwise capped at the horizon (200 for v0, 500 for v1), with
    reward +1 for every step taken.  ``step`` returns a new state array.
    """

    def __init__(self, version: str = "v0"):
        if version not in ("v0", "v1"):
            raise ValueError("version must be v0 or v1")
        self.version = version
        self.horizon = 200 if version == "v0" else 500
        self.num_actions = 2
        self.state_dim = 4

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.05, 0.05, size=4)

    def step(self, state: np.ndarray, action: int, rng: np.random.Generator | None = None):
        if action not in (0, 1):
            raise ValueError(f"action {action} out of range")
        # Python floats: the same IEEE arithmetic as numpy scalars, faster.
        x, x_dot, theta, theta_dot = np.asarray(state).tolist()
        force = _FORCE if action == 1 else -_FORCE
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        total_mass = _CART_MASS + _POLE_MASS
        pole_ml = _POLE_MASS * _POLE_HALF_LENGTH
        temp = (force + pole_ml * theta_dot**2 * sin_t) / total_mass
        theta_acc = (_GRAVITY * sin_t - cos_t * temp) / (
            _POLE_HALF_LENGTH * (4.0 / 3.0 - _POLE_MASS * cos_t**2 / total_mass)
        )
        x_acc = temp - pole_ml * theta_acc * cos_t / total_mass
        x = x + _DT * x_dot
        x_dot = x_dot + _DT * x_acc
        theta = theta + _DT * theta_dot
        theta_dot = theta_dot + _DT * theta_acc
        failed = abs(x) > _X_LIMIT or abs(theta) > _ANGLE_LIMIT
        return np.array([x, x_dot, theta, theta_dot]), 1.0, failed


# ---------------------------------------------------------------------------
# Feature encoders


class BinaryEncoder:
    """Discrete state index -> one angle per bit, 0 or pi.

    The binary expansion of the index is listed most significant bit
    first (wire order), each bit becoming the angle ``bit * pi``, so
    with unit scale factors the two bit values prepare orthogonal
    single-qubit states.  ``encode`` takes one state, giving (n_bits,),
    or an (L,) batch of states, giving (L, n_bits) whose row ``l`` is
    the encoding of state ``l`` alone.
    """

    def __init__(self, n_bits: int):
        if n_bits < 1:
            raise ValueError("need at least one bit")
        self.n_bits = n_bits
        self.output_dim = n_bits
        self._shifts = np.arange(n_bits - 1, -1, -1)

    def encode(self, states) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        if states.ndim > 1:
            raise ValueError(f"states have shape {states.shape}, expected () or (L,)")
        outside = (states < 0) | (states >= 1 << self.n_bits)
        if outside.any():
            bad = states.flat[int(np.argmax(outside))]
            raise ValueError(f"state {bad} does not fit in {self.n_bits} bits")
        return ((states[..., None] >> self._shifts) & 1) * np.pi


class ContinuousEncoder:
    """Per-dimension scaling of a real vector into [-1, 1).

    Each component is divided by its bound and clipped to
    [-1, 1 - ulp]; components beyond the bound therefore saturate.
    ``encode`` takes one state of shape (d,) or an (L, d) batch, whose
    row ``l`` is the encoding of state ``l`` alone.
    """

    def __init__(self, bounds):
        self.bounds = np.asarray(bounds, dtype=float)
        if (self.bounds <= 0).any():
            raise ValueError("bounds must be positive")
        self.output_dim = len(self.bounds)
        self._upper = np.nextafter(1.0, 0.0)

    def encode(self, states) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if states.ndim not in (1, 2) or states.shape[-1:] != self.bounds.shape:
            raise ValueError(
                f"state has shape {states.shape}, expected {self.bounds.shape} "
                f"or (L, {self.output_dim})"
            )
        # np.clip's bits, without its Python wrapper.
        scaled = states / self.bounds
        np.maximum(scaled, -1.0, out=scaled)
        return np.minimum(scaled, self._upper, out=scaled)


CARTPOLE_BOUNDS = (_X_LIMIT, 2.5, _ANGLE_LIMIT, 2.5)


def cartpole_encoder() -> ContinuousEncoder:
    """Default CartPole scaling: limits for position/angle, velocity clip 2.5."""
    return ContinuousEncoder(CARTPOLE_BOUNDS)
