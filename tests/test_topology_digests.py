"""Regression: the topology layers keep their exact outputs on depth-8 trees.

Labeling, aspect grouping (with the +/-pi seams in the joint space), SVG
rendering, Black-point sampling, Black area, witness pairing and the
overlap report are hashed for m1/m2 x both spaces, mode-free and for the
combo panels (a) and (h). The digests were taken while these layers still
read a 2^d x 2^d raster and per-consumer leaf walks, and labelings and
aspects still carried leaf paths; they are hashed in that form
(`helpers.legacy_labels`, `helpers.legacy_aspects`). Any change to a
region id, an area bit, a rect or a sample shows up here.
"""

import hashlib

import numpy as np
import pytest

from fivebar.aspects import (
    AspectSet,
    all_mode_combos,
    aspect_regions,
    aspect_report,
    pair_regions,
)
from fivebar.bench import JOINTSPACE, WORKSPACE
from fivebar.mechanism import M1, M2
from fivebar.quadtree import black_area, label_regions, sample_black_points
from fivebar.render import render_svg

from helpers import legacy_aspects, legacy_labels

GEOMETRIES = {"m1": M1, "m2": M2}
PANELS = ("a", "h")
SETTINGS = ("free",) + PANELS
SAMPLE_SEED = 20240


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _combo(panel):
    return next(c for c in all_mode_combos() if c.label == panel)


@pytest.fixture(scope="module")
def trees(modefree_chains, combo_trees_d8):
    """(mechanism, space, setting) -> depth-8 tree, from the shared fixtures."""
    combo_trees, _ = combo_trees_d8
    out = {}
    for m in GEOMETRIES:
        for space in (JOINTSPACE, WORKSPACE):
            out[m, space, "free"] = modefree_chains[m, space][8]
            for panel in PANELS:
                out[m, space, panel] = combo_trees[m, space, _combo(panel)]
    return out


def layer_digests(model, space) -> dict[str, str]:
    labels = label_regions(model)
    aspects = aspect_regions(model, labels, wrap=space == JOINTSPACE)
    points = sample_black_points(model, 500, np.random.default_rng(SAMPLE_SEED))
    legacy = legacy_labels(model, labels)
    return {
        "label": _sha(repr((
            legacy.region_count,
            list(legacy.leaf_to_region.items()),
            list(legacy.leaf_index_to_region.items()),
            legacy.regions,
        ))),
        "aspects": _sha(repr(legacy_aspects(model, labels, aspects))),
        "render": _sha(render_svg(model, labels)),
        "sample": _sha(points.tobytes()),
        "area": repr(black_area(model)),
    }


def pairing_digest(m, panel, trees) -> str:
    w, q = trees[m, WORKSPACE, panel], trees[m, JOINTSPACE, panel]
    q_labels = label_regions(q)
    pairing = pair_regions(
        GEOMETRIES[m], _combo(panel),
        w, aspect_regions(w, label_regions(w)),
        q, q_labels, aspect_regions(q, q_labels, wrap=True),
    )
    return _sha(repr(pairing))


def report_digest(m, combo_trees) -> str:
    sets = []
    for combo in all_mode_combos():
        w = combo_trees[m, WORKSPACE, combo]
        q = combo_trees[m, JOINTSPACE, combo]
        w_labels, q_labels = label_regions(w), label_regions(q)
        sets.append(AspectSet(
            combo, w, w_labels, aspect_regions(w, w_labels),
            q, q_labels, aspect_regions(q, q_labels, wrap=True), (),
        ))
    report = aspect_report(sets)
    return _sha(repr((report.combos, report.overlaps)))


LAYER_SHA256 = {'m1 jointspace a': {'area': '4.320963889710306',
                     'aspects': '0e128b18335942b7b2e9e6d991aeb362785c882ace211d56e77452884840ea5a',
                     'label': '72410f98e24457c07abc7b020ff139c139d8a701b5c974471200bf51a1aa2c7a',
                     'render': 'bb4d5b9bd5d83636f372b24741a9e99091705f2055f4cb7525c47ca1dd5b184b',
                     'sample': '3fcb98a3f361dc098570826c9942829000641bdc948ab68c3b12c9b5818071b4'},
 'm1 jointspace free': {'area': '20.60063057302583',
                        'aspects': 'c9ca5b6201695d440567bd8fb45a5b8c6e06962663ed36276d1e51e580b6cff9',
                        'label': '486329bf0f8bac2f009120a2d06efaf39a0afdc78ca057621850e168c8dab83f',
                        'render': 'e033b4dd8146bc0df995dcb7244be136461ccf723c99c803d0a7793637699b90',
                        'sample': '602eb0da96268fdf6f1abf0a53e7984436aff3d947e9a160e0871ad99a89fb37'},
 'm1 jointspace h': {'area': '4.320963889710303',
                     'aspects': '221774d05b9a933e04e8c13aebdbcf538a5fcf56c6ea1b2506ec08a6c00d4e91',
                     'label': '39032945f51884585d4a23d3ff01dc7624ad791ebbfc5f552ec110ec8f05a642',
                     'render': '16a11129691353f47f965b6c943bf7d072753c6e4deee5e8d44ecc609a22445f',
                     'sample': '4db635e4b397521b072aa32a9ca946a49e046273931d1de279b652c6225c3ab6'},
 'm1 workspace a': {'area': '97.1461181640625',
                    'aspects': '95bf649b9bf8f91c2c3107722e78fd63283e6f169fe03d37513d4889c06f415a',
                    'label': 'd49da570eca7f8357862c0d7963280b5c1602f2a6d6d382b3b6c26d81a96b638',
                    'render': '497aa60fef398da3e7092d66af23f23ccaa8130a47588b317e995bc84b756105',
                    'sample': 'e83de60468283b4b031ea40c4ce99b07fe4e66bd892ed201e0adaa12ee0923bd'},
 'm1 workspace free': {'area': '227.5682373046875',
                       'aspects': '2380728acf96a74e1156ecbdb43ecf9e2561fe2f55ae7dc78f5e300214c7bfad',
                       'label': '6a513fb41f1bfef46511bcf207698d74d4102497634a6ffd31008aad8342f81c',
                       'render': 'c9e8bdfa0e693b4d2aacfd3db616b70a55fcda89727aec58567c2bcb42902227',
                       'sample': '83b31f0ed77bed3c9c63dd2c3f2166c0b8ea074aa77330f0d5d8aabf9e919d8d'},
 'm1 workspace h': {'area': '97.1461181640625',
                    'aspects': 'e7df6e1299168515ba41802e2d1ec65eeccf73a146cfc35c0df0805f29845671',
                    'label': 'c9983db74667cc4e6590455d5b732ee6b302421097b09c052c6369ef9cb3c232',
                    'render': 'a91fb7b36974b9838f5a59804430b428944ffce264ac6b3d77a9785bcde4f6f9',
                    'sample': '12fd696270c7de381014de7d52df6ebe1cea5d65747eb8ffe2ec07c6e2ad152e'},
 'm2 jointspace a': {'area': '5.861282398840297',
                     'aspects': '7331c7cee0ae639cb12e477f2bb39f0f4d16fc74be5875b5016a0c9344fbadf0',
                     'label': '4ff0108487dc47d90f844351c2ad7b686bef4b72d9535ed58710c4a2d309efae',
                     'render': 'c6e331dba297641c2b831a43d48cee12792be04ad8e66c555476e50fc4df69c1',
                     'sample': '63f272ca155a6a0e87b68d520548d8d63b8bff009635e9bc98a9e4df21c7d1f4'},
 'm2 jointspace free': {'area': '25.694464485111457',
                        'aspects': 'bae00d90e694e9ab7ee94ff8e7d8ed51c7ec6c334651a9d74e57efc21b618cc6',
                        'label': '1131cd5ddf075c2dc679b75a5a44ab3da49d2d1d1d26504523d33e7c38510163',
                        'render': '72f68f3e913f56f3969fbdcba3d2a80ce562d3f1dac11cabcaa4d6db2c1458c9',
                        'sample': '1097df866b66bc81d473e023cfbd618ebe6da94556e7fac1bab77e8fd2b2ace0'},
 'm2 jointspace h': {'area': '5.861282398840288',
                     'aspects': '90d37d271b7daf5eeeb372ae22e5cfa2f9a3af2a28ebe9b111fdba395cf8af7e',
                     'label': '758b14777637a8f277fdd9900fe5c8b61552354f9e4b4b6b364ad97bdb73e6fd',
                     'render': '712f75cf5f1db7360737825d68734f7ae5d70c15e7d50ce51127099c87adbad7',
                     'sample': '4357937cb36e2475eeb2aa60d04f0cd8f249d8d333b0eee5ee8054e408b9c362'},
 'm2 workspace a': {'area': '19.96923339843744',
                    'aspects': '04fd6112e2b2f8f0cd181af622c1a5de954405040c12f71e114317c22690d668',
                    'label': '984dc8a9426329f62199e2e1564f8294d7becb4a7795de324379ed2b117a69ef',
                    'render': 'a6762fc070abcf5ec52e52d0e53d8afa7bb03bbb333d951c60330b899eb428cd',
                    'sample': '2fb5b1598fc1752f5574bf8abc578d56c3e8618ad99dc46eb498b42ff303a20b'},
 'm2 workspace free': {'area': '41.6277539062502',
                       'aspects': 'b38643de5a305d35f1c7ede55dc83bd5cb59b63cb3a2c940148bf60c207a1b84',
                       'label': '7983434fb9714de717759f36c5b546441593a60d68b72b1945f233918fcd0ec2',
                       'render': 'cf06d32b35c9fbbfd90817bacb4f4493b0024ea39f8f2942dd485c528f8664e2',
                       'sample': '915fbe4e4a46614e6ef3085e69e00d3cf22dffc2fd688d0ba5c470d03550a01a'},
 'm2 workspace h': {'area': '19.969233398437364',
                    'aspects': '695862ffda1a40110e2d678ddc39aa6327d23bffbf091dd1548af65829dc529b',
                    'label': '3b127f8d778c817bb29f8356a03b329fad39f6f846d9a8fb8e4544830ed9eb3a',
                    'render': '871821108418e86c8dee9094b92db758c797965afab1800250d380cc6f0d5f74',
                    'sample': '6e7f769f22fe8205d6edba8d1e1237401340d26b8dc88aed3a733c63f1413b7d'}}

PAIRING_SHA256 = {'m1 a': '34b7a3ab6803e4ab0a8889fca5e0134cc85004823f0432209937209bd4cdf701',
 'm1 h': 'a3dcc12ca7c1d8fe2df2b64c537377122bd278244fa631b7979cd81a7655d83e',
 'm2 a': '3dcc0cbcc70fe46ba10cfeecc6e719d693077988ebe799d737a13efee499cd27',
 'm2 h': 'd34f97d7a3a1425cdb7348ff7112c6f47173c0db84fd5dad1ac5f9a19673d880'}

REPORT_SHA256 = {'m1': '5c340d11233f319d65669c09f85d0795b56da51b425590bcdb1677576c092c04',
 'm2': 'ebb10eaa58fc9756748977757cc7af353e0f77b75be40afc272b411dafb15f77'}


@pytest.mark.parametrize("m", sorted(GEOMETRIES))
@pytest.mark.parametrize("space", (JOINTSPACE, WORKSPACE))
@pytest.mark.parametrize("setting", SETTINGS)
def test_layer_outputs_unchanged(trees, m, space, setting):
    got = layer_digests(trees[m, space, setting], space)
    assert got == LAYER_SHA256[f"{m} {space} {setting}"]


@pytest.mark.parametrize("m", sorted(GEOMETRIES))
@pytest.mark.parametrize("panel", PANELS)
def test_pairing_unchanged(trees, m, panel):
    assert pairing_digest(m, panel, trees) == PAIRING_SHA256[f"{m} {panel}"]


@pytest.mark.parametrize("m", sorted(GEOMETRIES))
def test_overlap_report_unchanged(combo_trees_d8, m):
    assert report_digest(m, combo_trees_d8[0]) == REPORT_SHA256[m]
