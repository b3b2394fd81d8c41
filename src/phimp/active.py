"""Agent-environment runs reduced to side-information prediction.

An environment is a bounded-memory finite-state machine over events
e = (action, observation, reward); given the current state and the action,
it draws an (observation, reward) pair, and the event drives the state
update. Rewards are symbols from a finite alphabet (discretize real rewards
before building the tables). Policies are stationary per-state action
distributions, the simplest class whose action frequencies converge.
Rollouts are drawn by the samplers' block walk (``_kernels.sample_walk``)
over the environment states, one event a step: the action draw, then the
(observation, reward) draw, each from its own row of uniforms.

Selecting a map for the reward sequence reuses the observations-only
criterion on pairs x = (observation, action), y = reward; the event symbol
fed to maps equals the joint pair index, so both views agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError
from .estimation import PenaltyScheme
from .fmaps import FeatureMap, load_fsm_map, memory_bound
from .selection import SelectionResult, _sized, select
from .sequences import (Alphabet, PairedSequence, _fields, _number_table,
                        _read_json, _write_json)
from .sources import _check_length, _check_stochastic, rng_stream


def event_index(observation: int, action: int, reward: int,
                action_count: int, reward_count: int) -> int:
    """Event symbol: ((o * A) + a) * R + r, matching the joint pair index of
    x = (o, a) and y = r. Works elementwise on integer arrays too."""
    return (observation * action_count + action) * reward_count + reward


@dataclass(eq=False)
class Environment:
    """Event-driven finite-state machine with per (state, action) outcome laws."""

    action_count: int
    observation_count: int
    reward_count: int
    event_map: FeatureMap
    emissions: np.ndarray  # (states, actions, observations * rewards)

    def __post_init__(self):
        expected = self.observation_count * self.action_count * self.reward_count
        if self.event_map.alphabet_size != expected:
            raise InputError(
                f"event map must read {expected} event symbols, "
                f"got {self.event_map.alphabet_size}")
        self.emissions = _number_table(self.emissions, "emissions")
        shape = (self.event_map.state_count, self.action_count,
                 self.observation_count * self.reward_count)
        if self.emissions.shape != shape:
            raise InputError(f"emissions must have shape {shape}, got {self.emissions.shape}")
        _check_stochastic(self.emissions.reshape(shape[0] * shape[1], shape[2]),
                          "emission table")
        if not memory_bound(self.event_map).bounded:
            raise InputError("environment event map must have bounded memory")

    @property
    def state_count(self) -> int:
        return self.event_map.state_count


@dataclass(eq=False)
class Policy:
    """Stationary per-state action distribution."""

    probs: np.ndarray  # (states, actions)

    def __post_init__(self):
        self.probs = _number_table(self.probs, "policy table")
        if self.probs.ndim != 2:
            raise InputError("policy table must be states-by-actions")
        _check_stochastic(self.probs, "policy table")

    @classmethod
    def uniform(cls, state_count: int, action_count: int) -> "Policy":
        return cls(np.full((state_count, action_count), 1.0 / action_count))


@dataclass(eq=False)
class Rollout:
    """One interaction trace."""

    action_count: int
    observation_count: int
    reward_count: int
    actions: np.ndarray
    observations: np.ndarray
    rewards: np.ndarray

    def __len__(self) -> int:
        return int(self.actions.size)

    def to_paired(self) -> PairedSequence:
        """Side information x = (observation, action), target y = reward."""
        xs = self.observations * self.action_count + self.actions
        return PairedSequence(
            Alphabet(self.observation_count * self.action_count),
            Alphabet(self.reward_count),
            xs, self.rewards)

    def event_symbols(self) -> np.ndarray:
        return event_index(self.observations, self.actions, self.rewards,
                           self.action_count, self.reward_count)


def _successors(env: Environment) -> np.ndarray:
    """The state the event map enters from state s after action a and the
    (observation, reward) pair p = o * R + r, as an (S, A, O * R) table."""
    state, action, pair = np.indices(env.emissions.shape)
    observation, reward = np.divmod(pair, env.reward_count)
    return env.event_map.step_table[
        state, event_index(observation, action, reward, env.action_count, env.reward_count)]


def rollout(env: Environment, policy: Policy, n: int, seed: int) -> Rollout:
    """Run the environment under the policy for n steps, reproducibly.

    One walk steps the environment states, one event a step in two phases:
    state s draws action a from the first row of uniforms, then (s, a) draws
    the (observation, reward) pair from the second, and the event leads to
    the next state.
    """
    _check_length(n, "rollout length")
    if policy.probs.shape != (env.state_count, env.action_count):
        raise InputError(
            f"policy must have shape {(env.state_count, env.action_count)}, "
            f"got {policy.probs.shape}")
    s_count, a_count = policy.probs.shape
    cdf_rows = [np.cumsum(policy.probs, axis=1).tolist(),
                np.cumsum(env.emissions, axis=2).reshape(s_count * a_count, -1).tolist()]
    step_rows = [np.arange(s_count * a_count).reshape(s_count, a_count).tolist(),
                 _successors(env).reshape(s_count * a_count, -1).tolist()]
    actions, pairs = _kernels.sample_walk(cdf_rows, step_rows, env.event_map.start_state,
                                          rng_stream(seed).random((2, n)))
    observations, rewards = np.divmod(pairs, env.reward_count)
    return Rollout(env.action_count, env.observation_count, env.reward_count,
                   actions, observations, rewards)


def policy_induced_chain(env: Environment, policy: Policy) -> np.ndarray:
    """Transition matrix of the environment states under the policy."""
    n = env.state_count
    out = np.zeros((n, n))
    # one unbuffered scatter in (s, a, pair) order: every cell sums as a loop would
    np.add.at(out, (np.arange(n)[:, None, None], _successors(env)),
              policy.probs[:, :, None] * env.emissions)
    return out


def active_select(events: Rollout | PairedSequence, maps: list[FeatureMap],
                  scheme: PenaltyScheme, criterion: str = "icost",
                  include_baseline: bool = True,
                  smoothing: float = 0.0) -> SelectionResult:
    """Choose a map for the reward sequence from an interaction trace.

    Delegates to plain selection on the (x, y) view of the events, so the
    result is identical to scoring that paired sequence directly.
    """
    paired = events.to_paired() if isinstance(events, Rollout) else events
    candidates, _ = _sized(maps, paired, criterion, include_baseline)
    return select(candidates, paired, criterion, scheme, smoothing)


# ---------------------------------------------------------------------------
# environment files (JSON): alphabet sizes, the event map, and the per
# (state, action) outcome tables over joint (observation, reward) indices


def environment_to_json(env: Environment) -> dict:
    return {
        "action_count": env.action_count,
        "observation_count": env.observation_count,
        "reward_count": env.reward_count,
        "event_map": env.event_map.to_json(),
        "emissions": env.emissions.tolist(),
    }


def environment_from_json(data: dict) -> Environment:
    counts = ("action_count", "observation_count", "reward_count")
    _fields(data, "environment file", (*counts, "event_map", "emissions"), integers=counts)
    return Environment(
        action_count=data["action_count"],
        observation_count=data["observation_count"],
        reward_count=data["reward_count"],
        event_map=load_fsm_map(data["event_map"]),
        emissions=data["emissions"],
    )


def read_environment(path) -> Environment:
    return environment_from_json(_read_json(path, "environment"))


def write_environment(path, env: Environment):
    _write_json(path, environment_to_json(env))


def embed_reward_map(reward_map: FeatureMap, action_count: int,
                     observation_count: int) -> FeatureMap:
    """Lift a map over rewards to the event alphabet, ignoring (o, a)."""
    reward_count = reward_map.alphabet_size
    event_size = observation_count * action_count * reward_count
    return FeatureMap(
        kind="general-fsm",
        alphabet_size=event_size,
        state_count=reward_map.state_count,
        start_state=reward_map.start_state,
        step_table=reward_map.step_table[:, np.arange(event_size) % reward_count],
        map_id=f"embed-r:{reward_map.map_id}",
    )
