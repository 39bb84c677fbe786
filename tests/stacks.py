"""Stacks built from one-draw points and channels, for the tests that
compare a stacked call with the calls on each trial alone."""
from dataclasses import fields
from typing import Sequence

import numpy as np

from irs_sensing.scene import (ChannelMatrix, ScenePoint, SceneTruth,
                               build_rician_channel)


def stack_channels(channels: Sequence[ChannelMatrix]) -> ChannelMatrix:
    """The channels of B trials as one stack along a leading trial axis,
    with the singular values each one's ``singular_ratio`` reads."""
    values = [np.linalg.svd(c.matrix, compute_uv=False)
              if c.singular_values is None else c.singular_values
              for c in channels]
    return ChannelMatrix(*(np.stack([getattr(c, part) for c in channels])
                           for part in ("matrix", "u", "v")), np.stack(values))


def stack_points(points: Sequence[ScenePoint]) -> ScenePoint:
    """The draws of B trials as one point along a leading trial axis."""
    truth = SceneTruth(*(np.stack([getattr(p.truth, f.name) for p in points])
                         for f in fields(SceneTruth)))
    return ScenePoint(truth, stack_channels([p.channel for p in points]),
                      points[0].profiles, np.stack([p.combiner for p in points]))


def rician_alone(g_los: ChannelMatrix, rician_db, n_nlos: int, arrays,
                 rng: np.random.Generator) -> ChannelMatrix:
    """build_rician_channel on one line-of-sight channel and its generator."""
    return build_rician_channel(stack_channels([g_los]), rician_db, n_nlos,
                                arrays, [rng]).trials(0)
