"""Every accepted config key changes what some command writes, or is marked
inert in KEY_TABLE with the reason. Keys are found through config.*_KEYS,
so a key added without a row fails test_every_key_has_a_row."""

import copy
import os

import pytest
import yaml

from uclso import config
from uclso.arff_io import write_mulan
from uclso.cli import main
from uclso.dataset import ToyConfig, generate_toy

# 80 points and two labels: label 0 has about 24 positives (imbalance ratio
# about 2.3), label 1 about 12
TOY = {
    "points_per_blob": [40, 40],
    "blob_centers": [[0, 0], [4, 4]],
    "blob_spreads": [1.0, 1.0],
    "minority_rules": [{1: 0.6}, {0: 0.3}],
}


def base_config(source="toy"):
    """The tiny config every row perturbs: seeds below the top level and
    the scale and filter sections take their defaults."""
    entry = {"name": "toy", "toy": copy.deepcopy(TOY)}
    if source == "mulan":
        entry = {"name": "toy", "mulan": {"arff": "a.arff", "xml": "a.xml"}}
    return {
        "seed": 3,
        "datasets": [entry],
        "methods": ["none", "smote", "uclso"],
        "oversample": {"k_clusters": 3, "m_neighbors": 5, "mode": "uclso"},
        "train": {"epochs": 2},
        "cv": {"reps": 1, "folds": 2},
    }


def entry(cfg):
    return cfg["datasets"][0]


# (section, key, command, perturbation, why the key is inert or None):
# the section is the *_KEYS tuple's name, lower case, without _KEYS; the
# perturbation edits a copy of base_config (its mulan files are a.arff and
# a.xml, made from TOY at seed 3, or b.arff and b.xml, made at seed 9, and
# one.xml, which lists label 0 alone); a row with no reason must change
# an output file of the command, one with a reason must leave them equal
# an inert row for `out` under each command shows that the command's files
# are equal when nothing else changes
KEY_TABLE = [
    ("top", "out", command, lambda c: c.update(out=c["out"] + "_moved"),
     "it names the directory the files go to, not what they hold")
    for command in ("stats", "cluster", "oversample", "experiment")
] + [
    ("top", "seed", "cluster", lambda c: c.update(seed=4), None),
    ("top", "datasets", "stats",
     lambda c: c["datasets"].append({"name": "more", "toy": copy.deepcopy(TOY)}), None),
    ("top", "methods", "experiment", lambda c: c.update(methods=["none", "uclso"]), None),
    ("top", "scale", "cluster", lambda c: c.update(scale="minmax"), None),
    ("top", "oversample", "cluster", lambda c: c.update(oversample={"k_clusters": 2}), None),
    ("top", "train", "experiment", lambda c: c.update(train={"epochs": 3}), None),
    ("top", "cv", "experiment", lambda c: c.update(cv={"reps": 2, "folds": 2}), None),
    ("top", "filter", "stats", lambda c: c.update(filter={"min_pos": 30}), None),
    ("dataset", "name", "stats", lambda c: entry(c).update(name="other"), None),
    ("dataset", "toy", "stats",
     lambda c: entry(c).update(toy=dict(TOY, points_per_blob=[50, 30])), None),
    ("dataset", "mulan", "stats",
     lambda c: c["datasets"].__setitem__(
         0, {"name": "toy", "mulan": {"arff": "b.arff", "xml": "b.xml"}}), None),
    ("toy", "points_per_blob", "stats",
     lambda c: entry(c)["toy"].update(points_per_blob=[40, 50]), None),
    ("toy", "blob_centers", "cluster",
     lambda c: entry(c)["toy"].update(blob_centers=[[0, 0], [5, 5]]), None),
    ("toy", "blob_spreads", "cluster",
     lambda c: entry(c)["toy"].update(blob_spreads=[1.0, 1.5]), None),
    ("toy", "minority_rules", "stats",
     lambda c: entry(c)["toy"].update(minority_rules=[{1: 0.5}, {0: 0.3}]), None),
    ("toy", "seed", "cluster", lambda c: entry(c)["toy"].update(seed=99), None),
    ("mulan", "arff", "cluster", lambda c: entry(c)["mulan"].update(arff="b.arff"), None),
    ("mulan", "xml", "stats", lambda c: entry(c)["mulan"].update(xml="one.xml"), None),
    ("oversample", "k_clusters", "cluster",
     lambda c: c["oversample"].update(k_clusters=2), None),
    ("oversample", "m_neighbors", "oversample",
     lambda c: c["oversample"].update(m_neighbors=1), None),
    ("oversample", "seed", "cluster", lambda c: c["oversample"].update(seed=99), None),
    ("oversample", "mode", "oversample", lambda c: c["oversample"].update(mode="smote"), None),
    ("oversample", "mode", "experiment", lambda c: c["oversample"].update(mode="smote"),
     "methods names the mode of each method it runs"),
    ("train", "reg_c", "experiment", lambda c: c["train"].update(reg_c=0.1), None),
    ("train", "epochs", "experiment", lambda c: c["train"].update(epochs=3), None),
    ("train", "batch_size", "experiment", lambda c: c["train"].update(batch_size=8), None),
    ("train", "seed", "experiment", lambda c: c["train"].update(seed=99), None),
    ("cv", "reps", "experiment", lambda c: c["cv"].update(reps=2), None),
    ("cv", "folds", "experiment", lambda c: c["cv"].update(folds=3), None),
    ("filter", "enabled", "oversample", lambda c: c.update(filter={"enabled": True}), None),
    ("filter", "max_ir", "stats", lambda c: c.update(filter={"max_ir": 2.0}), None),
    ("filter", "min_pos", "stats", lambda c: c.update(filter={"min_pos": 30}), None),
]


def test_every_key_has_a_row():
    accepted = {
        (name[:-len("_KEYS")].lower(), key)
        for name, keys in vars(config).items() if name.endswith("_KEYS")
        for key in keys
    }
    rows = {(section, key) for section, key, *_ in KEY_TABLE}
    assert sorted(accepted - rows) == []
    assert sorted(rows - accepted) == []


def outputs(out_dir):
    """Each output file's lines, without the config_hash ones."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            found[name] = [line for line in fh if "config_hash" not in line]
    return found


def run(tmp_path, name, command, cfg):
    cfg.setdefault("out", str(tmp_path / name))
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main([command, "--config", str(path)]) == 0
    return outputs(cfg["out"])


@pytest.mark.parametrize(
    "section, key, command, perturb, inert",
    [pytest.param(*row, id=f"{row[0]}.{row[1]}-{row[2]}") for row in KEY_TABLE],
)
def test_key_changes_an_output_or_is_inert(tmp_path, monkeypatch, capsys, section, key,
                                           command, perturb, inert):
    monkeypatch.chdir(tmp_path)
    for stem, seed in (("a", 3), ("b", 9)):
        ds = generate_toy(ToyConfig(
            tuple(TOY["points_per_blob"]), tuple(map(tuple, TOY["blob_centers"])),
            tuple(TOY["blob_spreads"]), tuple(TOY["minority_rules"]), seed))
        write_mulan(ds, f"{stem}.arff", f"{stem}.xml", relation="toy")
    (tmp_path / "one.xml").write_text(
        '<labels xmlns="http://mulan.sourceforge.net/labels">'
        f'<label name="{ds.label_names[0]}"/></labels>\n'
    )
    base = base_config("mulan" if section == "mulan" else "toy")
    perturbed = copy.deepcopy(base)
    perturbed["out"] = str(tmp_path / "perturbed")
    perturb(perturbed)
    before = run(tmp_path, "base", command, base)
    after = run(tmp_path, "perturbed", command, perturbed)
    capsys.readouterr()
    if inert:
        assert after == before
    else:
        assert after != before
