"""FIS and SA outputs, reports, summaries and tables pinned by SHA-256 digest.

The reference loops in helpers.py share the fuzzy controller with the
package and run on the installed numpy, so they cannot notice a change in
`infer` or in numpy's stream; these digests can.  Each FIS or SA digest is
that of `repr(result)` for a bundled instance at seeds 1, 2 and 3 under the
default settings.  The default rule base keeps one operator for long
stretches, so FIS is pinned under `helpers.always("Change")` as well, also on
the five-cycle fixture, whose packing floor (2) lies below its minimum (3),
so that its runs never stop early.

The report and summary digests pin the bytes a user sees: `write_report` of
a two-run report at seed 3 for every (bundled instance, algorithm) pair,
with the clock held still, and `summary_json` of a three-run sweep at seed 1.
The tables digest pins `render_tables` of that sweep, with a fake clock whose
ticks grow so that each (instance, algorithm) shows its own mean runtime.
"""

import functools
import hashlib
import itertools

import pytest

from helpers import always
from tsred import (
    ALGORITHMS,
    FISConfig,
    builtin,
    run_fis,
    simulated_annealing,
    solve_report,
    write_report,
)
from tsred import bench
from tsred.bench import bench_suite, render_tables, summary_json

SEEDS = (1, 2, 3)

FIS_DIGESTS = {
    "experiment-1": (
        "b9165e94b69237c38727aa2cabc7a1a1f1fd8dbb24a0250b5f7cc0da05f8b754",
        "360164c7eea9927e213c62588e520028d3388a96ce1c263cfd4d93de650b101c",
        "4f1acbc2b3a8ddc95c50990421036f520fd99fc928bcef191f9fc80051134bd8",
    ),
    "experiment-2": (
        "9397d57cf3e1e9e4a2474688b1d32531410580f49da47901630bca0996c4d7c4",
        "8736f35953b06f1c5b268b53ca0a9006c53b192041f682d97ad2cbb22f9c89ae",
        "6dba4869ee01485904424350a70a7ca535816e4dace6455586689170060452af",
    ),
    "experiment-3": (
        "a7c7d3ba63ac2c68bde63246606b6ee61647cbe17ab2a625beb8dbadecf4f8f3",
        "384489284af3d351392dea481c6b8ca5b3bd7aa7e8559655ad5e669710be734c",
        "4a7519578bf5e985a4b7845fecae25a36b491383c78444a33488bcc2e82ac0e4",
    ),
    "experiment-4": (
        "05f1f2e6be5860a3279cbebbc1a25548903ba372d95623fdac04113a0fcfe505",
        "cb11369a27be8fabe029f86fc244353e4ca5a9e8775aa83eb4844165f8ef5659",
        "15a01abf4999d582a158795d47b12b72e39d026b1cf9f17e4f3c6d04cea5980a",
    ),
    "experiment-5": (
        "53cedaea50f78e8934b8c7ee266129e415b086a048c9fb9232a5e28f8233bfb2",
        "41cff797bab819a793a2bb0a505f0bbbe1c4c65f439d31c1c94f5c4e55f834b5",
        "8ab6daccd8f0ba6e5ecc0cc7d2c6b04f888a385252db63600488a460ccd6e7f9",
    ),
}

FIS_ALWAYS_CHANGE_DIGESTS = {
    "experiment-1": (
        "b9165e94b69237c38727aa2cabc7a1a1f1fd8dbb24a0250b5f7cc0da05f8b754",
        "2ea15d1142948e19fd9c1e22b129f3d12a4c65a5fdc3244fb3575f93bf1cd100",
        "002d0cfa8d513752357bcc40daa0248546ff2f0001227d48e1576c27bc96fb50",
    ),
    "experiment-2": (
        "9397d57cf3e1e9e4a2474688b1d32531410580f49da47901630bca0996c4d7c4",
        "8736f35953b06f1c5b268b53ca0a9006c53b192041f682d97ad2cbb22f9c89ae",
        "6dba4869ee01485904424350a70a7ca535816e4dace6455586689170060452af",
    ),
    "experiment-3": (
        "a7c7d3ba63ac2c68bde63246606b6ee61647cbe17ab2a625beb8dbadecf4f8f3",
        "384489284af3d351392dea481c6b8ca5b3bd7aa7e8559655ad5e669710be734c",
        "4a7519578bf5e985a4b7845fecae25a36b491383c78444a33488bcc2e82ac0e4",
    ),
    "experiment-4": (
        "ac3f1178a253ca764a8e55240885be68a5456b0452639925c88becde60061533",
        "406e9458de5c24f7a8a2ff5fc244938bebc751194c3936518e46261030c40482",
        "049ebcca9400aa41c515ab4f08fd8b98a0348b902f1654d6f578d07c98fd96e3",
    ),
    "experiment-5": (
        "329c132f84fa58fbe0708d5888edb83c458c12b439f8c43a3efb8cad81279c36",
        "113c5cdc26298eba03433ae3664527a11f6366c06bb165407e449ff3bbe56dd8",
        "280fa4db21257c3fbc733cf934d077b4ffa9debe8915390867d510cad271fa31",
    ),
}

FIVE_CYCLE_ALWAYS_CHANGE_DIGESTS = (
    "c5c0c40ef1abf73e1216ef739f71a18a4d74b962f6cf1eb84916d644ca2d5985",
    "1ad009abf10245ab6fcdbaaa909d3da80f4d204171a734f285f4c4028b7a5c55",
    "1c8c146a5d94329b971e34b1b1accb7f7b568441eb5a87bd3cc45555e8a66274",
)

SA_DIGESTS = {
    "experiment-1": (
        "6c8339cf2aaa3a792c6dc0f6f6ed3ad262409d115016c2de17b93d337f7399ae",
        "8aec8909355118546569649b97704fc9a6be3b67a1976dbc2de2f2d4903d40a1",
        "f0c7d0f4bafa81e856e364a60cba5580540a82d929834915d0d0d07f33f41f3e",
    ),
    "experiment-2": (
        "fb0a278c310383afbf89c30f3923145e0b5dfc19923e233ae7f25a2b8c937ff6",
        "6e5e45433d48a05975e17712c194a2c4309eaf91943b336c0a806bf7d05baf32",
        "1e5932207c6ee23d85c4a6f1035dcd8ae6786b606180578ad58d21e1780b62bf",
    ),
    "experiment-3": (
        "acb27e611855a02fbf3b2c2789cf359aabc42417e3d7144b26a7c1d444e5639e",
        "ee3495816d2acf09d8311835ad437b5162b3e5dfb8b5269f08543a43e1207713",
        "b69722d08dc11db3ce0e2b6be5a05a928c16ebef5c9b672d62c486ffe756b1a2",
    ),
    "experiment-4": (
        "26de778c8463f73bd7b5ea87d79005d0f3ef5c2dcedacfa4d23ec490174c861a",
        "23d8129aae61ff8dcafd4b7e862d7cbe3381e3078c48554087dd29bd153d4009",
        "759840f5ab3ae00ceef436fe32d2c3bcbc9d4acb3501f458d2fa6f07540214a4",
    ),
    "experiment-5": (
        "b5b482a2e154fa4cb39c1f58db344b5457682fc01d148ca3f4b2e7be4ede3a4f",
        "bf3e2a33594679e52954ee33c611ffdff4354403e8fd0a9dd4176c6ece7740cc",
        "7940e21460e4efb1e4c97aa82d482ad88ea6db112ce4f96d2a50adcc1dec2088",
    ),
}

REPORT_DIGESTS = {
    "experiment-1": {
        "fis": "19df6be4996b3d2101dbfaa8d43237232e966bdc020ddf6e7ee27bf2a3d74152",
        "sa": "5558dd1cff650965487ce335ad53409dcf3f85d14ab1805d7d9ac80433cd6fdb",
        "ge": "137b3807929d2df106d69aa64a6c8992b98a1608d5f4c0f77728d84581d70dc6",
        "gre": "53677c3c258a236370a4dc401f8fe1728e520bb18487e3f420be8b51b1cba6dd",
        "hgs": "5a670ec1d946699f48c67e45ca80318aef0dd4c661e63429da643ec757188def",
    },
    "experiment-2": {
        "fis": "88a92de23b06d624e96a6fb18cf21ec2def28a5aa9a5b79112c860b20010980a",
        "sa": "0bb8822f09131807d49a596127fa16b7c1d1eef6d7226b43015adfc758f2d26b",
        "ge": "e8b1186adfdc7305b63e2a20a8a644a7b1e40a7fb5fadf145355603f2a279903",
        "gre": "8915a22e509977074ae5fb31948caf958d76990d47d1795fd06de702d1e7438e",
        "hgs": "c5494fb564a7eea6c37edcf64212ae8e47cc7b8c2656093fa081ef9d36641831",
    },
    "experiment-3": {
        "fis": "39641ef99797485549e22e60fc1f35641b3c146896c90a1770b39c3a2a3a9dde",
        "sa": "96e4846a2c633b32ccae684d2ac76998e65691ff3e6cc6291385ece1c69f0827",
        "ge": "2f9ce033bdf2a565bb3eaf0b27eef637c6ed50022bdfc1bdc61dd6d295864f9e",
        "gre": "93873adccd988f882935c01485a2ff22e298712e401d74b72f5eeb77952a00c7",
        "hgs": "38202f683ff734a37f4803ff3935bd14f9e273aea498ae57b12d175eb9c83a56",
    },
    "experiment-4": {
        "fis": "22c562071871261d6692524918edf62b50e4f159132000ef911cbfe1c1ab0fbf",
        "sa": "fc8362d97ff8bfb669277365f67dc987d8b1e18a5309b006792080aa717187e0",
        "ge": "f753acea25248c952b2b9cfc7041b55b27c29c8f8e90f345da2eed43c95db0c5",
        "gre": "d02962970c94f2e7cf2821d1a89646fb9b974b84d7e3a8d71278200afe03c6a5",
        "hgs": "8981110df6cadce292457a159b5e6aa108558193fe5cb42a7283733e5339e4ef",
    },
    "experiment-5": {
        "fis": "0bb956d3ea7f1dc9b6b690734f6dd3c148cfab39a000f37e82bbae630f33ae73",
        "sa": "1109bef6f3a3d837154533733db357525c4157fb7a4b14dfc0299ed6ef4258a7",
        "ge": "3db84b5563ff60fa1d81c93a6eb41afcbd14fe9491a902d0f31d1dc39cf90e0f",
        "gre": "0ea4b7e0b254d16f10f5f3ddce537099f967d5511397aa8e6c25b6503a20fb0b",
        "hgs": "ba020d6403b8331e8fe66307e3e11aa31e2145b82121f96b2fa0073944d95cb6",
    },
}

SUMMARY_DIGEST = "847cb949233beb81d7aa5b6a7ff2c3baf10511fe4f9124933a897a5228ca5129"
TABLES_DIGEST = "40ac1105379af834810dc437a8c70a8a32bc9e6e93e503f8acaa242d5eb090e2"


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


@pytest.mark.parametrize("name", FIS_DIGESTS)
def test_fis_outputs_are_pinned(name):
    instance = builtin(name)
    got = tuple(digest(run_fis(instance, seed=seed)) for seed in SEEDS)
    assert got == FIS_DIGESTS[name]


@pytest.mark.parametrize("name", FIS_ALWAYS_CHANGE_DIGESTS)
def test_fis_outputs_under_always_change_are_pinned(name):
    instance = builtin(name)
    config = FISConfig(rule_base=always("Change"))
    got = tuple(digest(run_fis(instance, config, seed=seed)) for seed in SEEDS)
    assert got == FIS_ALWAYS_CHANGE_DIGESTS[name]


def test_fis_outputs_under_always_change_are_pinned_on_the_five_cycle(five_cycle):
    config = FISConfig(rule_base=always("Change"))
    results = [run_fis(five_cycle, config, seed=seed) for seed in SEEDS]
    assert all(a != b for r in results for a, b in zip(r.operators, r.operators[1:]))
    assert tuple(map(digest, results)) == FIVE_CYCLE_ALWAYS_CHANGE_DIGESTS


@pytest.mark.parametrize("name", SA_DIGESTS)
def test_sa_outputs_are_pinned(name):
    instance = builtin(name)
    got = tuple(digest(simulated_annealing(instance, seed=seed)) for seed in SEEDS)
    assert got == SA_DIGESTS[name]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def frozen_clock() -> float:
    return 0.0


@pytest.mark.parametrize("name", REPORT_DIGESTS)
def test_report_bytes_are_pinned(name):
    instance = builtin(name)
    got = {
        algorithm: sha256(
            write_report(solve_report(instance, algorithm, 3, 2, clock=frozen_clock), instance)
        )
        for algorithm in ALGORITHMS
    }
    assert got == REPORT_DIGESTS[name]


def test_summary_bytes_are_pinned():
    assert sha256(summary_json(bench_suite(runs=3, seed=1))) == SUMMARY_DIGEST


def test_tables_bytes_are_pinned(monkeypatch):
    ticks = itertools.count()

    def ticking_clock() -> float:  # run j of the sweep takes (4j + 1) / 10 ms
        return next(ticks) ** 2 / 1e4

    monkeypatch.setattr(bench, "solve_report", functools.partial(solve_report, clock=ticking_clock))
    assert sha256(render_tables(bench_suite(runs=3, seed=1))) == TABLES_DIGEST
