"""Regression: the depth-8 trees of every mode setting keep their exact bytes.

The digests below were taken from the box classifiers as they stood before
the sign-only verdict functions replaced them; any change to a verdict, to
subdivision or to serialization shows up here as a changed digest.
"""

import argparse
import hashlib

import pytest

from fivebar import bench, cli, quadtree as qt
from fivebar.aspects import all_mode_combos
from fivebar.mechanism import M1, M2, AssemblyMode, WorkingMode

GEOMETRIES = {"m1": M1, "m2": M2}

# sha256 of serialize() at depth 8, captured before the verdict functions
# existed. Settings without a full mode combo: (tree, complement tree).
MODE_TREE_SHA256 = {
    "m1 jointspace": (
        "38283024c7f23cbdb260a7d3366a9797d1209db99b0da90a102db0d8cbe18fba",
        "034f9b99a4500a1baffdd3b95cdb7fd6bfe6ae4bd11328d3be11a3fad5ff0ab9",
    ),
    "m1 workspace": (
        "0255a16a9fdde9d72d9a95d7716503b3db049c38f15aee1476945b2904ee37c9",
        "e640ef34d112231842ad3e1e61485dbd53c12ad10e26a03572e5ebef9da26f13",
    ),
    "m1 jointspace +": (
        "38283024c7f23cbdb260a7d3366a9797d1209db99b0da90a102db0d8cbe18fba",
        "034f9b99a4500a1baffdd3b95cdb7fd6bfe6ae4bd11328d3be11a3fad5ff0ab9",
    ),
    "m1 jointspace -": (
        "38283024c7f23cbdb260a7d3366a9797d1209db99b0da90a102db0d8cbe18fba",
        "034f9b99a4500a1baffdd3b95cdb7fd6bfe6ae4bd11328d3be11a3fad5ff0ab9",
    ),
    "m1 workspace ++": (
        "0255a16a9fdde9d72d9a95d7716503b3db049c38f15aee1476945b2904ee37c9",
        "e640ef34d112231842ad3e1e61485dbd53c12ad10e26a03572e5ebef9da26f13",
    ),
    "m1 workspace +-": (
        "0255a16a9fdde9d72d9a95d7716503b3db049c38f15aee1476945b2904ee37c9",
        "e640ef34d112231842ad3e1e61485dbd53c12ad10e26a03572e5ebef9da26f13",
    ),
    "m1 workspace -+": (
        "0255a16a9fdde9d72d9a95d7716503b3db049c38f15aee1476945b2904ee37c9",
        "e640ef34d112231842ad3e1e61485dbd53c12ad10e26a03572e5ebef9da26f13",
    ),
    "m1 workspace --": (
        "0255a16a9fdde9d72d9a95d7716503b3db049c38f15aee1476945b2904ee37c9",
        "e640ef34d112231842ad3e1e61485dbd53c12ad10e26a03572e5ebef9da26f13",
    ),
    "m2 jointspace": (
        "d50a199cb2b869b47613caba1b3b437e26e388ec7abf2f8872ea5406271d0715",
        "df64fa7891c25b4a3d620622be8f7b7f743531c5625b7cbfe66106b60fff70ba",
    ),
    "m2 workspace": (
        "57943c28e775ef7a40ac11f92719271f9991396910433c91b77682955af43aef",
        "ca757d850d30e3d4325e4a105849f4ea6c908b7aab0d825470166b456a77fed8",
    ),
    "m2 jointspace +": (
        "d50a199cb2b869b47613caba1b3b437e26e388ec7abf2f8872ea5406271d0715",
        "df64fa7891c25b4a3d620622be8f7b7f743531c5625b7cbfe66106b60fff70ba",
    ),
    "m2 jointspace -": (
        "d50a199cb2b869b47613caba1b3b437e26e388ec7abf2f8872ea5406271d0715",
        "df64fa7891c25b4a3d620622be8f7b7f743531c5625b7cbfe66106b60fff70ba",
    ),
    "m2 workspace ++": (
        "57943c28e775ef7a40ac11f92719271f9991396910433c91b77682955af43aef",
        "ca757d850d30e3d4325e4a105849f4ea6c908b7aab0d825470166b456a77fed8",
    ),
    "m2 workspace +-": (
        "57943c28e775ef7a40ac11f92719271f9991396910433c91b77682955af43aef",
        "ca757d850d30e3d4325e4a105849f4ea6c908b7aab0d825470166b456a77fed8",
    ),
    "m2 workspace -+": (
        "57943c28e775ef7a40ac11f92719271f9991396910433c91b77682955af43aef",
        "ca757d850d30e3d4325e4a105849f4ea6c908b7aab0d825470166b456a77fed8",
    ),
    "m2 workspace --": (
        "57943c28e775ef7a40ac11f92719271f9991396910433c91b77682955af43aef",
        "ca757d850d30e3d4325e4a105849f4ea6c908b7aab0d825470166b456a77fed8",
    ),
}
# (mechanism, space, combo) -> tree, for the trees of `combo_trees_d8`
COMBO_TREE_SHA256 = {
    "m1 jointspace +++": "dfe67e47ba55b486efac20296194a43a9079c73b6e8822775314e19c548097c2",
    "m1 workspace +++": "1e9b97431641c1963a39ecc320eaba8bbfeb4b85d3891878d3eb8b49f33d66b6",
    "m1 jointspace ++-": "b766e2669c239b6ea2528b941aa28347bddf76871ffc3863a0f5c8537b6266eb",
    "m1 workspace ++-": "254c31459c8cfb33617b95cf62c6d326e37972bb7e77ddc8792ca9310c7c9d4f",
    "m1 jointspace +-+": "ac7b0788df0ad4f3e14c2d298644033c73ef91eea31e15e93203472896405cf6",
    "m1 workspace +-+": "10e5423fda415141d1b2adea11505ec9dc41e3efeb015ffd99beba9de024c5e9",
    "m1 jointspace +--": "9382b5bfe7b5b70a9b467e80900e78737b4a441bcd3ccef15805731f1caa7879",
    "m1 workspace +--": "4af813889612627d8c09e7a7e8d4abd2bba23be4efc9023aa3e6534dce3a468d",
    "m1 jointspace -++": "8548bfd93b10a28da6356e3cde85d098b54eab2a1041a8c900d85a70347955ed",
    "m1 workspace -++": "2af48349a5bbb3ec94a2b7fba1d98233a05277c9511bd19cc20d2aa48e91c599",
    "m1 jointspace -+-": "d8bbb7896164a1d4c5d370237a577f0b21c44b35ba3fab0d27635372899fc767",
    "m1 workspace -+-": "3e59806dda2b48ff69de6872f1eb8fbf6c26d1d3c4ae4fcf3074157dc579818c",
    "m1 jointspace --+": "7c66e4af6610e2f0492b38c6bdade8435e398fbfbfc358268caf044aae5d00b9",
    "m1 workspace --+": "116d463b41fb29ce00fc622ddccda3d6c02aeedd08fa28bdd830681e4d654df9",
    "m1 jointspace ---": "922648e7c832c09bbe02c73043a6f3d7f24fa415500c5c7dc434383554b9f136",
    "m1 workspace ---": "8e86fa8b93267f8b0b7ea8a91908d994427e67261cce94997b6b1fa21b9f286f",
    "m2 jointspace +++": "0882518eed2e45fc84a2b7fa51fc2299c56534c476f2c2038c835bcf95dd2490",
    "m2 workspace +++": "184cc1f91ee4083784dca60d29c922e35c5740e61baa5ee002fc5d197cce8457",
    "m2 jointspace ++-": "c75f705704ebf48628a54560025782bd86e7c73e124153d27c074f7c4a51ca2a",
    "m2 workspace ++-": "dd0952342221a3925190f9561be66b7fc7e029bb2108c996134c662dde9993e0",
    "m2 jointspace +-+": "91a27a729d80b386c103afeb7682a441c64bc697f2671e5a265792dbafc32709",
    "m2 workspace +-+": "97c342f610549f95b7303d5b1f7fc16f947a3d294fa94849ca98616304a767f3",
    "m2 jointspace +--": "ac98cd3c142f21e06c14f05e41719bc3de1c983b2c4230384026982f4e9b44f2",
    "m2 workspace +--": "d480178c46d5935ba48195cf0ee5ac70d265e70593c33816d8002a68f6f71ef4",
    "m2 jointspace -++": "a01eca05df0de6e3a7eb4be19098cbc74087c705bd8129095a6cf6f9b47102cc",
    "m2 workspace -++": "8cd2182c8faf83bb7e3c5cbf254d1fae98c5537e486028b6d7f728e5971ee4a5",
    "m2 jointspace -+-": "af7065daab9f00213774e9791a017f7de6a9021fa27c867187675c2be040d4fb",
    "m2 workspace -+-": "b63c5b94c211795bc603cc244e7ad9b03e27b49ecd232313361368ac5c5c888f",
    "m2 jointspace --+": "b22717672fe462c3fea27338f3935e41086dad2e6486b1ded26c6abf53083083",
    "m2 workspace --+": "c820988a8b5f60aad36be43319d1db3d082c9d68d4ff7647ed98dd906ab94a5b",
    "m2 jointspace ---": "d91f272181fd8d5ca1622de4c467cc6752d139e2db17f74af8ec11c1cedc865d",
    "m2 workspace ---": "313ff9c0303ffe8602b6eb20b90343b31329e33c3a360f2bfa4508e78de3048c",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _setting(key: str):
    name, space, *modes = key.split(" ")
    wm = am = None
    for m in modes:
        if len(m) == 2:
            wm = WorkingMode.from_str(m)
        else:
            am = AssemblyMode.from_str(m)
    return GEOMETRIES[name], space, wm, am


@pytest.mark.parametrize("key", sorted(MODE_TREE_SHA256))
def test_mode_tree_digests(key):
    g, space, wm, am = _setting(key)
    classify = cli._space_classifier(space, g, wm, am, argparse.ArgumentParser())
    model = qt.build(bench.space_box(g, space), 8, classify)
    tree = qt.serialize(model)
    assert (_sha256(tree), _sha256(qt.serialize(model.complement_model()))) == (
        MODE_TREE_SHA256[key]
    )
    if wm is None and am is None:
        plain = qt.build(bench.space_box(g, space), 8, bench.space_classifier(g, space))
        assert qt.serialize(plain) == tree


def test_combo_tree_digests(combo_trees_d8):
    trees, _ = combo_trees_d8
    assert len(trees) == len(COMBO_TREE_SHA256) == 2 * 2 * len(all_mode_combos())
    got = {
        f"{name} {space} {combo}": _sha256(qt.serialize(model))
        for (name, space, combo), model in trees.items()
    }
    assert got == COMBO_TREE_SHA256
