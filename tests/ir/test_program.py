"""Unit tests for access programs and point maps."""

import pytest

from repro.ir.program import IdentityMap, TileMap, program_from_nest
from tests.conftest import make_small_mm


def test_identity_map():
    m = IdentityMap()
    assert m.to_original((1, 2)) == (1, 2)
    assert m.from_original((3,)) == (3,)


def test_affine_forms():
    A, b = TileMap(lowers=(1, 3), tile_sizes=(3, 4)).affine()
    assert A.tolist() == [[3, 0, 1, 0], [0, 4, 0, 1]] and b.tolist() == [0, 2]
    A, b = program_from_nest(make_small_mm(4)).point_map.affine()
    assert A.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and b.tolist() == [0] * 3
    with pytest.raises(ValueError, match="depth"):
        IdentityMap().affine()


def test_tile_map_roundtrip_exhaustive():
    m = TileMap(lowers=(1, 1), tile_sizes=(3, 4))
    for i in range(1, 11):
        for j in range(1, 14):
            t = m.from_original((i, j))
            assert m.to_original(t) == (i, j)


def test_tile_map_coordinates():
    m = TileMap(lowers=(1,), tile_sizes=(3,))
    # i = 1 + 3t + (u-1); i=7 → t=2, u=1
    assert m.from_original((7,)) == (2, 1)
    assert m.to_original((2, 1)) == (7,)


def test_tile_map_validates():
    with pytest.raises(ValueError):
        TileMap((1,), (0,))
    with pytest.raises(ValueError):
        TileMap((1, 1), (2,))


def test_program_from_nest():
    nest = make_small_mm(6)
    prog = program_from_nest(nest)
    assert prog.space.num_points == 216
    assert prog.num_accesses == 216 * 4
    assert prog.space.vars == ("i", "j", "k")
    assert [a.name for a in prog.arrays()] == ["a", "b", "c"]


def test_program_rejects_foreign_vars():
    nest = make_small_mm(4)
    prog = program_from_nest(nest)
    from dataclasses import replace
    from repro.ir.affine import AffineExpr
    from repro.ir.arrays import read
    bad = read(nest.refs[0].array, AffineExpr.var("zz"), AffineExpr.var("i"))
    with pytest.raises(ValueError):
        replace(prog, refs=(bad,))
