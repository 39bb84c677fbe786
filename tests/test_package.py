"""The package namespace re-exports the public error hierarchy."""
import inspect

import irs_sensing
from irs_sensing import errors


def test_every_sensing_error_is_exported():
    defined = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SensingError)
               and cls.__module__ == errors.__name__]
    missing = [cls.__name__ for cls in defined
               if getattr(irs_sensing, cls.__name__, None) is not cls]
    assert len(defined) > 1
    assert not missing, f"not importable from irs_sensing: {missing}"
