"""Stacks of trials: an estimator step given a leading trial axis returns
``(result, errors)``, ``errors[b]`` being the EstimationError of trial b or
None; a check on what the whole stack shares still raises.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np


def take_trials(stacked, index):
    """Trials ``index`` of an array, factor container (by ``map``) or tuple."""
    if isinstance(stacked, tuple):
        return tuple(take_trials(x, index) for x in stacked)
    if isinstance(stacked, np.ndarray):
        return stacked[index]
    return stacked.map(lambda a: a[index])


def record_failures(errors: list, failed, make_error) -> None:
    """Give each flagged trial b without an error yet ``make_error(b)``;
    called in check order, each trial keeps the first check it fails."""
    for b in np.flatnonzero(failed):
        if errors[b] is None:
            errors[b] = make_error(b)


def _ndim(x) -> int:
    """Axes of an array, or of the first array of a factor container."""
    while dataclasses.is_dataclass(x):
        x = getattr(x, dataclasses.fields(x)[0].name)
    return x.ndim


def stackable(core_ndim: int = 2, n_stacked: int = 1):
    """Give a step written for a stack, whose first ``n_stacked`` arguments
    carry the trial axis, its one-trial form: a first argument with
    ``core_ndim`` axes raises the trial's error or returns its result
    without the axis."""
    def decorate(step):
        @functools.wraps(step)
        def one_or_stack(*args, **kwargs):
            if _ndim(args[0]) > core_ndim:
                return step(*args, **kwargs)
            stacked = take_trials(args[:n_stacked], np.newaxis)
            result, errors = step(*stacked, *args[n_stacked:], **kwargs)
            if errors[0] is not None:
                raise errors[0]
            return take_trials(result, 0)
        return one_or_stack
    return decorate
