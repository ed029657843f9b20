from __future__ import annotations

from jobtuner import errors


def test_the_hierarchy_keeps_only_the_classes_a_caller_can_act_on():
    """A subclass names a next step or carries a field; any other refusal is a TunerError."""
    defined = {name: value.__bases__ for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    tuner = (errors.TunerError,)
    assert defined == {
        "TunerError": (Exception,),
        "ParamSyntaxError": tuner,
        "DomainError": tuner,
        "InvalidPointError": tuner,
        "SpawnFailureError": tuner,
        "ConnectError": tuner,
        "StagingError": tuner,
        "TransportTimeout": tuner,
        "ManifestMissingError": tuner,
        "HistoryCorruptError": tuner,
        "SpaceMismatchError": tuner,
        "SessionExistsError": tuner,
        "LockHeldError": tuner,
        "MissingFileError": tuner,
        "MissingKeyError": tuner,
        "BadValueError": tuner,
        "CrossValidationError": tuner,
    }
