"""Exception hierarchy shared across the toolkit. Each class carries the
exit code of ``adx`` and the prefix of its one-line message (``cli.main``)."""


class AdxError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2
    kind = "error"


class InputError(AdxError):
    """Problems with input files or referential integrity."""

    kind = "input error"


class MalformedRow(InputError):
    def __init__(self, path, line_no, reason):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class UnknownSubject(InputError):
    pass


class ExposureBelowEpisodes(InputError):
    """An exposure row gives a subject a last_cycle below its episodes' highest cycle."""

    def __init__(self, message, subject_id=None):
        self.subject_id = subject_id
        super().__init__(message)


class ArmMismatch(InputError):
    pass


class UnmappedTerm(InputError):
    pass


class MissingHierarchy(AdxError):
    """Operation needs a hierarchy map but none was loaded."""


class UnknownDimension(AdxError):
    pass


class UnknownSoc(AdxError):
    pass


class EmptyProfile(AdxError):
    """Estimation requested on a profile with zero episodes."""

    exit_code, kind = 4, "degenerate statistics"


class DegenerateVariance(AdxError):
    """se(diff) is zero; the normal approximation is unusable."""

    exit_code, kind = 4, "degenerate statistics"


class ZeroAdversity(AdxError):
    """AdX is zero (single AE type); benefit/AdX ratio is ill-defined."""

    exit_code, kind = 4, "degenerate statistics"


class DivisionByZeroBenefit(AdxError):
    pass


class InsufficientData(AdxError):
    pass


class NoDatedEpisodes(AdxError):
    """All episodes lack onset_day; interim analysis impossible."""


class NoCycleData(AdxError):
    """All episodes lack a cycle number; exposure analysis impossible."""


class InvalidScenario(AdxError):
    pass


class DegenerateScenario(AdxError):
    """Uniform true vector: analytic variance is zero."""

    exit_code, kind = 4, "degenerate statistics"


class ConfigError(AdxError):
    """Bad run configuration (CLI flags, alpha range, etc.)."""

    exit_code, kind = 3, "configuration error"
