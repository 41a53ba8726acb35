"""Tests for DFS/BFS exploration orders."""

import pytest

from repro.errors import SymexError
from repro.solver import ast
from repro.symex.engine import BFS, DFS, Engine, EngineConfig


def _ladder(ctx):
    """Three independent branches; sends the depth reached on each path."""
    depth = 0
    for index in range(3):
        if not ctx.branch(ctx.fresh_byte(f"b{index}") < 128):
            break
        depth += 1
    ctx.send("sink", [depth])


def _depths(result):
    return [p.sends[0].payload[0].value for p in result.paths]


class TestSearchOrder:
    def test_same_path_set_either_order(self):
        dfs = Engine(EngineConfig(search_order=DFS)).explore(_ladder)
        bfs = Engine(EngineConfig(search_order=BFS)).explore(_ladder)
        assert sorted(_depths(dfs)) == sorted(_depths(bfs))
        assert {p.constraints for p in dfs.paths} == \
            {p.constraints for p in bfs.paths}

    def test_dfs_completes_deepest_forks_first(self):
        result = Engine(EngineConfig(search_order=DFS)).explore(_ladder)
        # Initial run reaches depth 3; DFS then drains the most recent
        # fork outward: 2, 1, 0.
        assert _depths(result) == [3, 2, 1, 0]

    def test_bfs_drains_forks_in_creation_order(self):
        result = Engine(EngineConfig(search_order=BFS)).explore(_ladder)
        # After the first (deepest) run, BFS replays the earliest fork
        # (the shallowest sibling) before the deeper ones.
        assert _depths(result) == [3, 0, 1, 2]

    def test_unknown_order_rejected(self):
        engine = Engine(EngineConfig(search_order="zigzag"))
        with pytest.raises(SymexError):
            engine.explore(_ladder)

    @pytest.mark.parametrize("max_paths", [0, -3])
    def test_non_positive_max_paths_rejected(self, max_paths):
        engine = Engine(EngineConfig(max_paths=max_paths))
        with pytest.raises(SymexError, match="max_paths"):
            engine.explore(_ladder)

    def test_max_paths_interacts_with_order(self):
        dfs = Engine(EngineConfig(search_order=DFS, max_paths=2))
        bfs = Engine(EngineConfig(search_order=BFS, max_paths=2))
        first = dfs.explore(_ladder)
        second = bfs.explore(_ladder)
        assert len(first.paths) == len(second.paths) == 2
        # Both saw the same first path, then diverged.
        assert _depths(first)[0] == _depths(second)[0] == 3
        assert _depths(first)[1] != _depths(second)[1]
