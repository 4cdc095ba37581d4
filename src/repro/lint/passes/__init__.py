"""Built-in lint passes; importing this package registers them all."""

from repro.lint.passes import (  # noqa: F401
    api_hygiene,
    determinism,
    schema,
    time_hygiene,
    typing_surface,
)
