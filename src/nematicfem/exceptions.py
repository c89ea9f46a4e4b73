"""Exception types shared across the package."""


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class NestingError(MeshError):
    """Field transfer requested between meshes that are not parent/child."""


class SpaceMismatchError(ValueError):
    """Operation applied to a field or space of the wrong kind."""


class ConfigError(ValueError):
    """Parameter outside its admissible range."""


class DataEvaluationError(ValueError):
    """Boundary or source data returned a non-finite value."""


class LinearSolveError(RuntimeError):
    """Sparse LU factorization failed or its solve was not finite (singular
    or badly scaled system).  Newton's GMRES steps do not raise it: a step
    whose GMRES does not converge refactors, and only that factorization
    can fail."""


class NewtonError(RuntimeError):
    """Newton iteration did not converge within the iteration budget.

    Carries the partial iteration history in ``report`` and, when raised
    from the adaptive loop, the records of the completed levels in
    ``level_records``.
    """

    def __init__(self, message, report=None, level_records=None):
        super().__init__(message)
        self.report = report
        self.level_records = level_records
