import numpy as np
import pytest

from streamcache import BBox, Token, TokenFactory, TokenKind


def test_factory_ids_strictly_increase(factory):
    ids = [factory.visual(i, np.zeros(3)).id for i in range(5)]
    ids += [factory.text(0, np.zeros(3)).id, factory.marker(0, np.zeros(3)).id]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_kind_field_requirements(factory):
    with pytest.raises(ValueError):
        Token(0, TokenKind.VISUAL_FRAME, np.zeros(3))
    with pytest.raises(ValueError):
        Token(1, TokenKind.TEXT, np.zeros(3))
    with pytest.raises(ValueError):
        Token(2, TokenKind.LONG_TERM_MARKER, np.zeros(3))
    Token(3, TokenKind.PROMPT, np.zeros(3))


def test_bbox_validate_and_round_trip():
    box = BBox(0.1, 0.5, 0.4, 0.2)
    with pytest.raises(ValueError):
        BBox(0.5, 0.5, 0.0, 0.1)
    round_trip = BBox(*box.as_array())
    assert round_trip == box


@pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_bbox_rejects_non_finite(field, value):
    fields = {"cx": 0.5, "cy": 0.5, "w": 0.2, "h": 0.2, field: value}
    with pytest.raises(ValueError, match="non-finite"):
        BBox(**fields)
