"""Shared fixtures: one deterministic default scene with both phases."""
import dataclasses

import numpy as np
import pytest

from irs_sensing.config import FullConfig
from irs_sensing.scene import draw_scene_point
from irs_sensing.synthesis import build_factor_matrices, echo_tensors

SCENE_SEED = 7


def take_targets(truth, index):
    """The truth with every per-target array indexed by ``index``: a subset,
    a repeat or no target at all."""
    return dataclasses.replace(truth, **{
        f.name: getattr(truth, f.name)[index]
        for f in dataclasses.fields(truth) if f.name != "sync_delay_s"})


@pytest.fixture(scope="session")
def cfg():
    return FullConfig()


@pytest.fixture(scope="session")
def scene_point(cfg):
    return draw_scene_point(cfg, [np.random.default_rng(SCENE_SEED)]).trial(0)


@pytest.fixture(scope="session")
def profiles(scene_point):
    return scene_point.profiles


@pytest.fixture(scope="session")
def truth(scene_point):
    return scene_point.truth


@pytest.fixture(scope="session")
def channel(scene_point):
    return scene_point.channel


@pytest.fixture(scope="session")
def combiner(scene_point):
    return scene_point.combiner


@pytest.fixture(scope="session")
def clean_pair(cfg, scene_point):
    """Noise-free echo tensors for both observation phases."""
    return echo_tensors(*scene_point, cfg.waveform, cfg.arrays)


@pytest.fixture(scope="session")
def factor_pair(cfg, truth, channel, profiles, combiner):
    """Ground-truth factor matrices for both phases."""
    return tuple(
        build_factor_matrices(truth, channel, prof, combiner, cfg.waveform,
                              cfg.arrays)
        for prof in profiles)
