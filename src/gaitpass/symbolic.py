"""Ternary coding of acceleration channels by pooled quantile thresholds.

Each channel d gets two cutoffs ``(a_d, b_d)``: the alpha- and beta-quantiles
of that channel's pooled training values.  A sample then codes to 1 when
``x <= a_d``, 2 when ``a_d < x <= b_d``, and 3 when ``x > b_d``, turning a
D-channel recording into a sequence of D-digit ternary state vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ingest import LineReader, TimeSeriesFrame


def resultant_acceleration(frame: TimeSeriesFrame) -> np.ndarray:
    """Per-sample Euclidean magnitude sqrt(X^2 + Y^2 + Z^2) of one sensor."""
    if len(frame.sensors) != 1:
        raise ValueError(f"need a one-sensor frame, got {frame.sensors}")
    return np.sqrt(np.sum(np.square(frame.values), axis=0))


@dataclass(frozen=True, eq=False)
class TernaryCoding:
    """Fitted per-channel cutoffs for the three-level quantile code."""

    alpha: float
    beta: float
    thresholds: np.ndarray
    channels: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 0.5)")
        if not 0.5 < self.beta < 1.0:
            raise ValueError("beta must lie in (0.5, 1)")
        thresholds = np.array(self.thresholds, dtype=float)
        if thresholds.ndim != 2 or thresholds.shape[1] != 2:
            raise ValueError("thresholds must be a D x 2 matrix")
        if thresholds.shape[0] != len(self.channels):
            raise ValueError("one (a_d, b_d) row per channel required")
        if np.any(thresholds[:, 0] > thresholds[:, 1]):
            raise ValueError("each a_d must not exceed b_d")
        thresholds.flags.writeable = False
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(
            self, "channels", tuple((str(s), str(a)) for s, a in self.channels)
        )

    @property
    def n_dims(self) -> int:
        return self.thresholds.shape[0]


@dataclass(frozen=True, eq=False)
class StateVectorSequence:
    """T x D matrix of ternary digits, one D-digit state per sample."""

    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.array(self.states)
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] < 1:
            raise ValueError("states must be a T x D matrix with T, D >= 1")
        if not np.issubdtype(states.dtype, np.integer):
            raise ValueError("states must be integers")
        if states.min() < 1 or states.max() > 3:
            raise ValueError("ternary digits must lie in {1, 2, 3}")
        states = states.astype(np.uint8)
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    @property
    def n_dims(self) -> int:
        return self.states.shape[1]


def fit_ternary(
    frames: Iterable[TimeSeriesFrame], alpha: float, beta: float
) -> TernaryCoding:
    """Fit per-channel cutoffs from the pooled values of one or more frames.

    All frames must share an identical channel list.  Cutoffs are the
    linearly interpolated empirical quantiles of each channel's pooled
    samples (the numpy default definition).
    """
    frames = list(frames)
    if not frames:
        raise ValueError("at least one frame is required to fit cutoffs")
    channels = frames[0].channels
    for frame in frames[1:]:
        if frame.channels != channels:
            raise ValueError(
                f"channel mismatch: {frame.channels} vs {channels}"
            )
    # One channel at a time, so the pooled D x sum(T) matrix is never built;
    # the cutoffs equal an axis-1 quantile over it bit for bit.
    thresholds = [
        np.quantile(np.concatenate([f.values[d] for f in frames]), [alpha, beta])
        for d in range(len(channels))
    ]
    return TernaryCoding(
        alpha=alpha, beta=beta, thresholds=thresholds, channels=channels
    )


def encode_ternary(
    frame: TimeSeriesFrame, coding: TernaryCoding
) -> StateVectorSequence:
    """Code every sample of ``frame`` against fitted cutoffs.

    Values equal to a cutoff fall in the lower band: ``x == a_d`` codes to
    1 and ``x == b_d`` codes to 2.
    """
    if frame.channels != coding.channels:
        raise ValueError(
            f"frame channels {frame.channels} do not match the fitted "
            f"coding channels {coding.channels}"
        )
    a = coding.thresholds[:, 0:1]
    b = coding.thresholds[:, 1:2]
    codes = 1 + (frame.values > a).astype(np.uint8) + (frame.values > b).astype(
        np.uint8
    )
    return StateVectorSequence(states=codes.T)


# ---------------------------------------------------------------------------
# persistence, so a fitted coding can be reused in later invocations
# ---------------------------------------------------------------------------

_MAGIC = "gaitpass-ternary v1"


def coding_to_text(coding: TernaryCoding) -> str:
    lines = [
        _MAGIC,
        f"alpha {repr(coding.alpha)}",
        f"beta {repr(coding.beta)}",
        f"channels {len(coding.channels)}",
    ]
    for (sensor, axis), (a, b) in zip(coding.channels, coding.thresholds):
        lines.append(f"{sensor} {axis} {repr(float(a))} {repr(float(b))}")
    return "\n".join(lines) + "\n"


def coding_from_text(text: str) -> TernaryCoding:
    lines = LineReader(text, _MAGIC)
    alpha = lines.value("alpha")
    beta = lines.value("beta")
    channels, thresholds = [], []
    for _ in range(lines.value("channels", int)):
        sensor, axis, *cuts = lines.fields(count=4)
        channels.append((sensor, axis))
        thresholds.append(lines.numbers(cuts))
    lines.finish()
    return TernaryCoding(
        alpha=alpha,
        beta=beta,
        thresholds=np.array(thresholds),
        channels=tuple(channels),
    )
