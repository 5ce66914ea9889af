"""FIS and SA outputs pinned by SHA-256 digest.

The reference loops in helpers.py share the fuzzy controller with the
package, so they cannot notice a change in `infer`; and they run on the
numpy that is installed, so they cannot notice a change in numpy's stream.
These digests can: each is the SHA-256 of `repr(result)` for a bundled
instance at seeds 1, 2 and 3 under the default settings.  The FIS digests
predate the memoised `infer`; the SA digests are those of the annealer that
draws its swap positions in blocks of `baselines.BLOCK` pairs.  Under the
default rule base a run keeps one operator for long stretches, so the FIS
digests are pinned under `helpers.always_change()` as well, where every
operator's batched position draw (crossover's with its mate column) runs on
every instance.

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

from helpers import always_change
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
        "b2c9f9e6cc3abc8233052df7f69a74003d74444040ddc02e6edeb5ee7f8c886d",
        "0cc4998b8e4ddf6bef36fe87dd7e5fe5f7e6d3fed9cbf2dd726261b63e6ad9df",
    ),
    "experiment-2": (
        "9397d57cf3e1e9e4a2474688b1d32531410580f49da47901630bca0996c4d7c4",
        "9e08406662f86309771f84c1ab8dde4c1c5cf6b8fa90b07a3755dbbc948793e9",
        "6dba4869ee01485904424350a70a7ca535816e4dace6455586689170060452af",
    ),
    "experiment-3": (
        "a7c7d3ba63ac2c68bde63246606b6ee61647cbe17ab2a625beb8dbadecf4f8f3",
        "384489284af3d351392dea481c6b8ca5b3bd7aa7e8559655ad5e669710be734c",
        "4a7519578bf5e985a4b7845fecae25a36b491383c78444a33488bcc2e82ac0e4",
    ),
    "experiment-4": (
        "932665e791be53c89637363057ae5dbb7229c50673cac19fa114dc429c06c05a",
        "07ee835aecec4e1a8ace09fb2cdf1cada3b3a44b0caaf384c644bde59d0b2e7f",
        "7ab2b06400e2653f267edeebbc611276568b2559bc4e884da4fbfce7f60fc3bd",
    ),
    "experiment-5": (
        "71b8d11cc70deec3a3a28452c531b61fb46a77e7b12010aa22eeae411b12d958",
        "8bc032249cf89369b4424b64d0f132161b16191926550baed5aab38f3b3ab91b",
        "57ae34d57cce8466173a08aeb51677fb63491ab334fdb242e76eb1822c229a75",
    ),
}

FIS_ALWAYS_CHANGE_DIGESTS = {
    "experiment-1": (
        "629fa1246e16ccf26e5633c58a16f21804a8225b4de4861a0c7c58a0bea6dcaf",
        "c79365a41257ca910073206254bfe7c4d49c9cf133a40fff875288a5308ee63b",
        "da0edafa44747b81300d2655fd026a9d72581550385f8d8b2a50ac07e2aceb7d",
    ),
    "experiment-2": (
        "ac7f4a6f5b21918e9c9c33636bbf35c662e40390c865d568aa1373178862e93b",
        "0489cc1e783986a3b4f0e45ed369f9e97bb87f3eafcd1a064181e89a36e8cfa9",
        "72439d7caad1ac03e491de86bc9932b1fa9c80067e650d048d1bb37a71b2cbeb",
    ),
    "experiment-3": (
        "f018be141d3b03a10f4e27f635d753b9119e0acdca59b948c165637d95b30c82",
        "09b96a8b98d218ca4753e78ea89af4d57574e7d8b97188df8a52c29b61b457e3",
        "f9c42e05f629c0b7eddaa8223299208a9e5299d38dcf780fe2a18599a175420c",
    ),
    "experiment-4": (
        "e93e5d81ebd646499294313d087d7a4a5c3e4a82323ae3f8c47f66dd2beb6b58",
        "1acd63c466a313510ce4b7b6b97e84db4dec0e2fbfc2caa6a4d8e36445bbdc96",
        "23a4df2fb55b7170dad291b80934d3a842954e5c77b556d077e9f466b5231a9a",
    ),
    "experiment-5": (
        "9d804ba479d9d78c1d45390a5b7ff0f6606639da6c2dc1bb5665ac290ab272ab",
        "a82c4f54c0950b8b6dfd301df7f967e4d9ccc352f356f11dbc3a8189a681ec84",
        "d7521891c73bba82132d20e4a165d0a4bcd6553eb2232b886c52290e3f73cb1a",
    ),
}

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
        "fis": "9c4edf586ccd784ca3475f8e0a7ee30d80862c5f1b5258b879755640a4f76e3e",
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
        "fis": "4604c36ed1bd2823d40dc617e9bb447888c3fca69456c49c6d0bdbe3d00425ec",
        "sa": "fc8362d97ff8bfb669277365f67dc987d8b1e18a5309b006792080aa717187e0",
        "ge": "f753acea25248c952b2b9cfc7041b55b27c29c8f8e90f345da2eed43c95db0c5",
        "gre": "d02962970c94f2e7cf2821d1a89646fb9b974b84d7e3a8d71278200afe03c6a5",
        "hgs": "8981110df6cadce292457a159b5e6aa108558193fe5cb42a7283733e5339e4ef",
    },
    "experiment-5": {
        "fis": "c9a183b6548da6477ad7f9e80cf2a4817b66657267846e1090cad554b973ed9d",
        "sa": "1109bef6f3a3d837154533733db357525c4157fb7a4b14dfc0299ed6ef4258a7",
        "ge": "3db84b5563ff60fa1d81c93a6eb41afcbd14fe9491a902d0f31d1dc39cf90e0f",
        "gre": "0ea4b7e0b254d16f10f5f3ddce537099f967d5511397aa8e6c25b6503a20fb0b",
        "hgs": "ba020d6403b8331e8fe66307e3e11aa31e2145b82121f96b2fa0073944d95cb6",
    },
}

SUMMARY_DIGEST = "29ae9e747af4f33bfe2c365d9bbd5902f46ac897670bfdd2fc817fee94f4bb78"
TABLES_DIGEST = "af50b425e5ea4b963ae3bf48a0c8fa55b2cc2f524213e6060877f99466620ad0"


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
    config = FISConfig(rule_base=always_change())
    got = tuple(digest(run_fis(instance, config, seed=seed)) for seed in SEEDS)
    assert got == FIS_ALWAYS_CHANGE_DIGESTS[name]


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
