"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Experiment configuration is malformed (bad field, unknown key, ...)."""


class ResourceRefusalError(RuntimeError):
    """A requested allocation exceeds the configured memory budget."""
