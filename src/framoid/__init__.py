"""framoid: exact workbench for beaded (framed) and tied diagram monoids."""

from .diagrams import (
    BeadedDiagram,
    GenSymbol,
    LoopRecord,
    CapExceeded,
    NotPlanar,
    compose,
    erase_beads,
    erase_ties,
    generator,
    identity,
    parse_word,
    render_word,
)
from .monoids import (
    MonoidFamily,
    family,
    generating_set,
    closure,
    predicted_cardinality,
    check_relations,
)

__all__ = [
    "BeadedDiagram",
    "GenSymbol",
    "LoopRecord",
    "CapExceeded",
    "NotPlanar",
    "compose",
    "erase_beads",
    "erase_ties",
    "generator",
    "identity",
    "parse_word",
    "render_word",
    "MonoidFamily",
    "family",
    "generating_set",
    "closure",
    "predicted_cardinality",
    "check_relations",
]
