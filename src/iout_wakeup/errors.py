"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside a model's valid domain (e.g. distance below the
    reference distance, non-positive frequency), or a CLI grid cannot be
    built from its flags (a non-positive step, an empty or too long range)."""


class NoSolution(Exception):
    """The range solver's bracket does not contain the sensitivity crossing."""


class PolicyError(ValueError):
    """Wake policy parameters are inconsistent with the energy profile."""


class ConfigError(ValueError):
    """Simulation configuration violates an invariant (duplicate address,
    node above the surface, ...)."""


class ParseError(ValueError):
    """A command line or a scenario file is not syntactically valid."""


class ValidationError(ValueError):
    """Scenario file is well-formed but violates the schema."""
