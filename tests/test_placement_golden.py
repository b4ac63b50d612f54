"""Golden fingerprints and a differential oracle for file placement.

Placement (Section 3.3.2) makes more random draws than any other generation
step, so a change that flips a single draw moves every image fingerprint.
The goldens below were recorded once and must never change.  The
differential test checks :class:`FilePlacer` draw for draw against
:class:`_ReferencePlacer`, a verbatim copy of the straightforward placer the
goldens were recorded with: the same parents, by node identity, and the same
generator state afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GIB, ImpressionsConfig
from repro.core.impressions import Impressions
from repro.dataset.synthetic import SyntheticDatasetBuilder
from repro.namespace.placement import FilePlacer, PlacementModel
from repro.namespace.special_dirs import SpecialDirectorySpec, install_special_directories
from repro.namespace.tree import DirectoryNode, FileSystemTree
from repro.pipeline.runner import image_fingerprint

CUSTOM_SPECIALS = (
    SpecialDirectorySpec(name="Cache", depth=9, file_bias=0.2),
    SpecialDirectorySpec(name="Docs", depth=1, file_bias=0.1),
)
VARIANTS = {
    "default": {},
    "poisson_only": {"use_multiplicative_depth_model": False},
    "no_special": {"special_directories": ()},
    "custom_special": {"special_directories": CUSTOM_SPECIALS},
}

#: (image, scale, seed, variant) -> image_fingerprint of the generated image.
IMAGE_GOLDENS: dict[tuple[str, float, int, str], str] = {
    ("image1", 0.02, 1, "default"): "65b01adda90e50c2c9365be10a18b28c20b2fc2eb5a34955892981bc69ca5f7c",
    ("image1", 0.02, 42, "default"): "795d014eb85cd183c377cb1c9927440ee92481f790e5b1d117a213d5f577365e",
    ("image1", 0.02, 2009, "default"): "1f63960257a5e04db8f41b6bf5e5f16c7182f3c6801838cbf03bc1bd76d8d003",
    ("image1", 0.1, 1, "default"): "4a558ba6866794653991d6a9fed561910df3c22ea0dec5933beaa42776eec660",
    ("image1", 0.1, 42, "default"): "c80b0fe9ffcc460d907828c89c2abafc11ffc73b45222a6777af037a11827586",
    ("image1", 0.1, 2009, "default"): "e68b5a2cbdb2025a4ecc3e2bf4bc2bcf3704dfdeb05c2e1a5bb1373f02df765a",
    ("image2", 0.02, 1, "default"): "1df0a314e9abf097e544e00871c4060125b54b713eed2f346d9e16566b6fd7ff",
    ("image2", 0.02, 42, "default"): "bcacfedfb10f03495ddb8a2a3026b1b45dd8183a2c79b1c37f9998119a514e75",
    ("image2", 0.02, 2009, "default"): "6b8833bba70e757e05eca7dacd913650eed3456ad0fe38f2c033d340e5d7ff82",
    ("image2", 0.1, 1, "default"): "ac22d907b7d6f7c4b938fa17722e4a20502e54bf7e0ff486c7747f3b1c34d8eb",
    ("image2", 0.1, 42, "default"): "a1e076479b5f5f6f8595821e9c23b2cf8723173cc5269b00fb6fb82af92dff58",
    ("image2", 0.1, 2009, "default"): "e6891a7e84477e7a4040e4d5de44ca1003ba05f8465150e464898cc9698b9edf",
    ("image1", 0.02, 42, "poisson_only"): "2510028eb5a7163aa87321371ac963012531c94c4c90b74813a8f9fc2515cab9",
    ("image2", 0.02, 42, "poisson_only"): "ed8aa4296a63903a55da456c80390494eec2344965bcb84dac251e7a3b6cf978",
    ("image1", 0.02, 42, "no_special"): "8f16ec236886491246dbc27ae2f20226b7e7dd5b0784a189e2143b0d337917fe",
    ("image2", 0.02, 42, "no_special"): "d4b94c979d8a42d8f8dc723fd419ae53d9eb84057a1718f2f4c50b592a3569eb",
    ("image1", 0.02, 42, "custom_special"): "06b3fa58f849fd76fb5f6f2e1fa2ca129ae0caadfe490efbddc939cebb7b3cec",
    ("image2", 0.02, 42, "custom_special"): "9bf584dec06cd73927bd247c079b61ea4b580de96e52e00f95c77a18e7d9311c",
}

#: sha256 of the records of ``SyntheticDatasetBuilder(seed=2009)``'s snapshot
#: at 0.5 GiB capped to 3,000 files.  That builder places files without
#: creating them in the tree, so no per-directory quota ever depletes there.
SNAPSHOT_GOLDEN = "351042aeb9b36fa6a4149fa140be2b1fa3299c18dff15ff4b178a7dad8e37da3"


def _table6_config(image: str, scale: float, seed: int, variant: str) -> ImpressionsConfig:
    """Table 6's Image1 (4.55 GB / 20k files) or Image2 (12 GB / 52k files), scaled."""
    size_gb, files = {"image1": (4.55, 20_000), "image2": (12.0, 52_000)}[image]
    return ImpressionsConfig(
        fs_size_bytes=max(int(size_gb * GIB * scale), 8 * 1024 * 1024),
        num_files=max(int(files * scale), 50),
        num_directories=max(int(4_000 * scale), 10),
        seed=seed,
        **VARIANTS[variant],
    )


@pytest.mark.parametrize("case", sorted(IMAGE_GOLDENS), ids=lambda case: "-".join(map(str, case)))
def test_image_fingerprint_golden(case):
    image = Impressions(_table6_config(*case)).generate()
    assert image_fingerprint(image) == IMAGE_GOLDENS[case]


def test_synthetic_snapshot_golden():
    snapshot = SyntheticDatasetBuilder(seed=2009).build_snapshot(capacity_gib=0.5, max_files=3000)
    document = [
        [dataclasses.astuple(record) for record in snapshot.files],
        [dataclasses.astuple(record) for record in snapshot.directories],
    ]
    assert hashlib.sha256(json.dumps(document).encode()).hexdigest() == SNAPSHOT_GOLDEN


class _ReferencePlacer:
    """The straightforward placer the goldens were recorded with (do not optimise)."""

    def __init__(self, tree, model, rng, special_nodes=None) -> None:
        self._tree = tree
        self._model = model
        self._rng = rng
        self._special_nodes = dict(special_nodes or {})
        self._max_depth = max(tree.max_depth(), 1)
        self._depth_weights_cache: dict[int, np.ndarray] = {}
        self._directories_by_depth: dict[int, list[DirectoryNode]] = {}
        self._quotas: dict[int, np.ndarray] = {}
        self._special_specs = {
            spec.name: spec for spec in model.special_directories if spec.name in self._special_nodes
        }

    def choose_depth(self, file_size: int) -> int:
        max_file_depth = self._max_depth + 1
        depths = np.arange(1, max_file_depth + 1)
        weights = self._depth_weights(file_size, depths)
        total = weights.sum()
        if total <= 0:
            return int(depths[np.argmax(self._poisson_weights(depths))])
        chosen = self._rng.choice(depths, p=weights / total)
        return int(chosen)

    def _depth_weights(self, file_size: int, depths: np.ndarray) -> np.ndarray:
        poisson_weights = self._poisson_weights(depths)
        if not self._model.use_multiplicative_model:
            return poisson_weights
        affinity = np.empty(len(depths), dtype=float)
        log_size = math.log(max(file_size, 1))
        sigma = self._model.affinity_sigma
        for position, depth in enumerate(depths):
            target = math.log(max(self._model.mean_bytes_at(int(depth)), 1.0))
            affinity[position] = math.exp(-((log_size - target) ** 2) / (2.0 * sigma**2))
        return poisson_weights * affinity

    def _poisson_weights(self, depths: np.ndarray) -> np.ndarray:
        key = len(depths)
        if key not in self._depth_weights_cache:
            self._depth_weights_cache[key] = np.asarray(
                self._model.depth_distribution.pmf(depths), dtype=float
            )
        return self._depth_weights_cache[key]

    def choose_parent(self, depth: int) -> DirectoryNode:
        parent_depth = depth - 1
        candidates = self._candidates_at(parent_depth)
        while not candidates and parent_depth > 0:
            parent_depth -= 1
            candidates = self._candidates_at(parent_depth)
        if not candidates:
            return self._tree.root
        quotas = self._quotas[parent_depth]
        weights = quotas - np.asarray([directory.file_count for directory in candidates], dtype=float)
        weights = np.maximum(weights, 0.25)
        index = int(self._rng.choice(len(candidates), p=weights / weights.sum()))
        return candidates[index]

    def _candidates_at(self, depth: int) -> list[DirectoryNode]:
        if depth < 0:
            return []
        if depth not in self._directories_by_depth:
            candidates = self._tree.directories_at_depth(depth)
            self._directories_by_depth[depth] = candidates
            if candidates:
                quotas = self._model.directory_file_count.sample(self._rng, len(candidates))
                self._quotas[depth] = np.asarray(quotas, dtype=float) + 1.0
        return self._directories_by_depth[depth]

    def place(self, file_size: int) -> DirectoryNode:
        special = self._maybe_special()
        if special is not None:
            return special
        depth = self.choose_depth(file_size)
        return self.choose_parent(depth)

    def _maybe_special(self) -> DirectoryNode | None:
        if not self._special_specs:
            return None
        draw = self._rng.random()
        cumulative = 0.0
        for name, spec in self._special_specs.items():
            cumulative += spec.file_bias
            if draw < cumulative:
                return self._special_nodes[name]
        return None


_SPECIALS = (
    SpecialDirectorySpec(name="Deep", depth=5, file_bias=0.3),
    SpecialDirectorySpec(name="Top", depth=1, file_bias=0.2),
)

#: One operation against the placer or the tree: ``place``/``depth`` take a
#: file size, ``burst`` seeds 10-79 placements of lognormal sizes (enough for
#: quotas to deplete), ``repeat`` places the previous size again 1-5 times,
#: ``parent`` takes a requested depth, ``file`` and ``dir`` an index into the
#: tree's directories (files and directories appearing mid-run).
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("place"), st.sampled_from([0, 1, 2, 4096, 10**5, 3 * 2**20, 2**31])),
        st.tuples(st.just("place"), st.integers(0, 2**40)),
        st.tuples(st.just("place"), st.integers(2**40 + 1, 2**63 - 1)),
        st.tuples(st.just("repeat"), st.integers(1, 5)),
        st.tuples(st.just("burst"), st.integers(0, 2**32)),
        st.tuples(st.just("depth"), st.integers(0, 2**34)),
        st.tuples(st.just("parent"), st.integers(0, 12)),
        st.tuples(st.just("file"), st.integers(0, 10**6)),
        st.tuples(st.just("dir"), st.integers(0, 10**6)),
    ),
    max_size=60,
)


def _build_tree(
    shape: list[int], gaps: list[bool], prefill: list[int], extra: int = 0
) -> FileSystemTree:
    """A tree grown from ``shape``: entry ``i`` attaches a child under an earlier directory.

    A ``True`` in ``gaps`` creates that child without registering it with the
    tree, so its registered descendants leave a depth with no candidate
    parents (the placer's shallower-depth fallback).  ``extra`` more
    directories follow under hash-scattered earlier ones, and ``prefill``
    puts files in before any placer exists.
    """
    tree = FileSystemTree()
    nodes = [tree.root]
    anchors = list(shape) + [(index * 2_654_435_761) >> 7 for index in range(extra)]
    for index, anchor in enumerate(anchors):
        parent = nodes[anchor % len(nodes)]
        if index < len(gaps) and gaps[index]:
            nodes.append(parent.add_subdirectory(f"gap{index}"))
        else:
            nodes.append(tree.create_directory(parent))
    for anchor in prefill:
        tree.create_file(nodes[anchor % len(nodes)], size=anchor, extension="")
    return tree


def _expand(operations):
    """``operations`` with every ``burst`` and ``repeat`` turned into its ``place`` steps."""
    expanded = []
    previous = 4096
    for kind, value in operations:
        if kind == "burst":
            burst_rng = np.random.default_rng(value)
            sizes = burst_rng.lognormal(10.0, 3.0, 10 + value % 70).astype(np.int64).tolist()
            expanded.extend(("place", size) for size in sizes)
        elif kind == "repeat":
            expanded.extend(("place", previous) for _ in range(value))
        else:
            expanded.append((kind, value))
        if expanded and expanded[-1][0] == "place":
            previous = expanded[-1][1]
    return expanded


def _run(placer_class, recipe, model_kwargs, specials, create, operations, prepared=()):
    tree = _build_tree(*recipe)
    rng = np.random.default_rng(recipe[0][0] if recipe[0] else 7)
    nodes = install_special_directories(tree, _SPECIALS, rng) if specials else {}
    model = PlacementModel(special_directories=_SPECIALS if specials else (), **model_kwargs)
    placer = placer_class(tree, model, rng, special_nodes=nodes)
    if prepared:
        placer.prepare(np.asarray(prepared, dtype=np.int64))
    results: list[object] = []
    for kind, value in _expand(operations):
        if kind == "place":
            parent = placer.place(value)
            results.append(parent)
            if create:
                tree.create_file(parent, size=value, extension="bin")
        elif kind == "depth":
            results.append(placer.choose_depth(value))
        elif kind == "parent":
            results.append(placer.choose_parent(value))
        elif kind == "file":
            directories = tree.directories
            tree.create_file(directories[value % len(directories)], size=value, extension="")
        else:
            directories = tree.directories
            tree.create_directory(directories[value % len(directories)])
    index = {id(directory): position for position, directory in enumerate(tree.directories)}
    labels = [index[id(item)] if isinstance(item, DirectoryNode) else item for item in results]
    return labels, rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(
    shape=st.lists(st.integers(0, 10**6), max_size=40),
    gaps=st.lists(st.booleans(), max_size=40),
    prefill=st.lists(st.integers(0, 10**6), max_size=20),
    extra=st.integers(0, 150),
    sigma=st.sampled_from([0.01, 0.5, 2.2]),
    multiplicative=st.booleans(),
    specials=st.booleans(),
    create=st.booleans(),
    operations=_operations,
    prepare=st.sampled_from(["none", "placed", "some"]),
)
def test_placer_matches_reference_draw_for_draw(
    shape, gaps, prefill, extra, sigma, multiplicative, specials, create, operations, prepare
):
    """``prepare`` hands the placer no sizes, every placed size up front (as
    the placement stage does), or every other one, leaving the rest and all
    ``depth`` sizes to be prepared on first use."""
    recipe = (shape, gaps, prefill, extra)
    model_kwargs = {"affinity_sigma": sigma, "use_multiplicative_model": multiplicative}
    placed = [value for kind, value in _expand(operations) if kind == "place"]
    prepared = {"none": [], "placed": placed, "some": placed[::2]}[prepare]
    expected = _run(_ReferencePlacer, recipe, model_kwargs, specials, create, operations)
    actual = _run(FilePlacer, recipe, model_kwargs, specials, create, operations, prepared)
    assert actual[0] == expected[0]
    assert actual[1] == expected[1]


@pytest.mark.parametrize("case", [("image1", 0.02, 1, "custom_special"), ("image2", 0.02, 42, "default")])
def test_file_paths_match_per_file_paths_on_generated_trees(case):
    tree = Impressions(_table6_config(*case)).generate().tree
    assert tree.file_paths() == [file_node.path() for file_node in tree.files]


def test_file_paths_match_per_file_paths_on_a_shard_merged_tree():
    from repro.shard import generate_sharded

    config = ImpressionsConfig(
        fs_size_bytes=4 * 1024 * 1024, num_files=300, num_directories=60, seed=11
    )
    tree = generate_sharded(config, num_shards=3, digest=False).image.tree
    # The merge renames colliding top-level nodes while adopting subtrees.
    top_level = [child.name for child in tree.root.subdirectories + tree.root.files]
    assert any(name.startswith(("s01-", "s02-")) for name in top_level)
    assert tree.file_paths() == [file_node.path() for file_node in tree.files]
    assert list(tree.directory_paths().items()) == [
        (directory, directory.path()) for directory in tree.walk_depth_first()
    ]


@given(
    shape=st.lists(st.integers(0, 10**6), max_size=30),
    gaps=st.lists(st.booleans(), max_size=30),
    prefill=st.lists(st.integers(0, 10**6), max_size=30),
)
def test_file_paths_match_per_file_paths_on_random_trees(shape, gaps, prefill):
    tree = _build_tree(shape, gaps, prefill)
    assert tree.file_paths() == [file_node.path() for file_node in tree.files]
    assert list(tree.directory_paths().items()) == [
        (directory, directory.path()) for directory in tree.walk_depth_first()
    ]
