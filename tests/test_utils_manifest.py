"""The shared fingerprinted-directory helper in `repro.utils`.

Campaigns and search checkpoints hash their identity with
`fingerprint`, read their manifest with `read_manifest` under a named
tear policy, and write it with `write_manifest`.
"""

import json

import pytest

from repro.utils import (
    fingerprint,
    quarantine_with,
    read_manifest,
    refuse,
    require,
    write_manifest,
)


def test_fingerprint_ignores_key_order():
    assert fingerprint({"a": 1, "b": [2]}) == fingerprint({"b": [2], "a": 1})


class Foreign(RuntimeError):
    pass


class Torn(RuntimeError):
    pass


def read(path, policy, **kwargs):
    return read_manifest(
        path, policy=policy, fingerprint="f" * 8, foreign=Foreign("foreign"),
        **kwargs,
    )


TORN = ["{not json", "[1, 2]", "{}", '{"fingerprint": 5}']


class TestReadManifest:
    def test_absent_is_none(self, tmp_path):
        assert read(tmp_path / "manifest.json", refuse(Torn)) is None

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = {"fingerprint": "f" * 8, "batches": {"0": [1.5]}}
        write_manifest(path, manifest)
        assert path.read_text() == json.dumps(manifest)
        assert read(path, refuse(Torn)) == manifest

    def test_foreign_fingerprint_raises_the_callers_error(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"fingerprint": "other"})
        with pytest.raises(Foreign):
            read(path, refuse(Torn))
        with pytest.raises(Foreign):
            read(path, quarantine_with(lambda: []))
        assert path.exists()

    @pytest.mark.parametrize("text", TORN)
    def test_refuse_raises_and_moves_nothing(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        with pytest.raises(Torn, match="manifest.json: "):
            read(path, refuse(Torn))
        assert path.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("text", TORN)
    def test_quarantine_moves_the_manifest_and_its_children(self, tmp_path, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        child = tmp_path / "step_00000.json"
        child.write_text("{}")
        assert read(path, quarantine_with(lambda: [child])) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json.corrupt",
            "step_00000.json.corrupt",
        ]

    def test_repeated_tears_keep_every_quarantined_file(self, tmp_path):
        # A repeated corruption of the same file never overwrites the
        # evidence of an earlier one.
        path = tmp_path / "manifest.json"
        for text in TORN[:3]:
            path.write_text(text)
            assert read(path, quarantine_with(lambda: [])) is None
        quarantined = sorted(tmp_path.iterdir())
        assert [p.name for p in quarantined] == [
            "manifest.json.corrupt",
            "manifest.json.corrupt1",
            "manifest.json.corrupt2",
        ]
        assert [p.read_text() for p in quarantined] == TORN[:3]

    def test_schema_rejection_is_a_tear(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"fingerprint": "f" * 8, "batches": []})

        def schema(manifest):
            require(manifest, "manifest", {"batches": dict})

        with pytest.raises(Torn, match="manifest.batches: expected dict, got list"):
            read(path, refuse(Torn), schema=schema)


class TestRequire:
    def test_names_the_path(self):
        with pytest.raises(ValueError, match=r"^state\.coef: missing$"):
            require({}, "state", {"coef": list})
        with pytest.raises(ValueError, match=r"^state\.coef: expected list, got str$"):
            require({"coef": "x"}, "state", {"coef": list})
        with pytest.raises(ValueError, match=r"^state: expected an object, got list$"):
            require([], "state", {})

    def test_tuple_of_types(self):
        require({"shard": None}, "b", {"shard": (str, type(None))})
        with pytest.raises(ValueError, match=r"^b\.shard: expected str or NoneType"):
            require({"shard": 3}, "b", {"shard": (str, type(None))})
