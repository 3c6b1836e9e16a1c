"""Hearst-pattern surface templates.

Surfaces are genuinely parseable: the test oracle
``tests/corpus/hearst_parser.py`` recovers the candidate structure from
the raw string, and round-trip tests assert ``parse(render(x)) == x``.
Three shapes are used:

* ``<C-pl> such as a, b and c`` — unambiguous, one candidate;
* ``<head-pl> from <modifier-pl> such as a, b and c`` — ambiguous; the
  modifier is nearest to the cue, so candidates are ``(modifier, head)``;
* ``<C-pl> other than <x> such as a and b`` — the mis-parse shape: a naive
  parser attaches *such as* to ``<x>`` and produces ``(a isA x)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pluralize",
    "render_unambiguous",
    "render_ambiguous",
    "render_misparse",
    "join_instances",
    "LEADINS",
]

#: Decorative lead-ins; parsing ignores everything before the pattern body.
LEADINS = (
    "",
    "many ",
    "some ",
    "popular ",
    "various ",
    "well-known ",
)


def pluralize(noun: str) -> str:
    """Pluralise the head (last) word of a concept surface.

    >>> pluralize("country")
    'countries'
    >>> pluralize("asian country")
    'asian countries'
    >>> pluralize("bus")
    'buses'
    """
    head = noun.rsplit(" ", 1)[-1]
    prefix = noun[: len(noun) - len(head)]
    if head.endswith("y") and len(head) > 1 and head[-2] not in "aeiou":
        plural = head[:-1] + "ies"
    elif head.endswith(("s", "x", "z", "ch", "sh")):
        plural = head + "es"
    else:
        plural = head + "s"
    return prefix + plural


def join_instances(instances: tuple[str, ...]) -> str:
    """Render an instance list the way Hearst sentences do.

    >>> join_instances(("a", "b", "c"))
    'a, b and c'
    """
    if len(instances) == 1:
        return instances[0]
    return ", ".join(instances[:-1]) + " and " + instances[-1]


def _leadin(rng: np.random.Generator) -> str:
    return LEADINS[int(rng.integers(0, len(LEADINS)))]


def render_unambiguous(
    concept: str, instances: tuple[str, ...], rng: np.random.Generator
) -> str:
    """Surface for a single-candidate sentence."""
    return (
        f"{_leadin(rng)}{pluralize(concept)} such as {join_instances(instances)}"
    )


def render_ambiguous(
    head: str,
    modifier: str,
    instances: tuple[str, ...],
    rng: np.random.Generator,
) -> str:
    """Surface for a two-candidate sentence.

    The *modifier* sits next to ``such as`` and is therefore the preferred
    syntactic attachment; the *head* is the concept the sentence is really
    about.
    """
    return (
        f"{_leadin(rng)}{pluralize(head)} from {pluralize(modifier)} "
        f"such as {join_instances(instances)}"
    )


def render_misparse(
    concept: str,
    excluded: str,
    instances: tuple[str, ...],
    rng: np.random.Generator,
) -> str:
    """Surface whose naive parse yields ``(instances isA excluded)``."""
    return (
        f"{_leadin(rng)}{pluralize(concept)} other than {pluralize(excluded)} "
        f"such as {join_instances(instances)}"
    )
