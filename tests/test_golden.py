"""SHA-256 digests of CLI stdout that must not change: `toric verify-hrr`
on all 14 catalog fans with the default trials, one wide-coefficient run, and
`verify-step` lines with small and 10^15-sized coefficients. A change to
any chi route, check or report format that alters a byte fails here."""

import hashlib

import pytest

from toricchi.cli import main

GOLDEN = {
    "verify-hrr catalog:p1":
        "d63e489fddbe42a26ea9a787a14a8b05038a72a9001db2742daa5d04730c37ce",
    "verify-hrr catalog:p2":
        "59b93ebed94b2f6f725ba58918069c1c83b464dc5ba039b9804678916828efe9",
    "verify-hrr catalog:p3":
        "f9cea3abd78b5abf9ad9e8b7afdf950760f42674940d2ace31c4a5571a29c649",
    "verify-hrr catalog:p4":
        "daeafbb811848e08ba313217a61e2ca9a34c6c60199c5398ebea7711f105776e",
    "verify-hrr catalog:f0":
        "a26a867ead6edd05fc717108f9a551ab6e2695433c1478dced070fd9e645ba71",
    "verify-hrr catalog:f1":
        "21609bacf9070c38e9e7d2fdddd6ed84fe4484459ab8da12e867986149fd7c68",
    "verify-hrr catalog:f2":
        "4f189469475549030e56359b131fad06883506db53f588dd8e211469a7cf4c7b",
    "verify-hrr catalog:f3":
        "d2b0df4be2785ada0828f55049e390fffb146bc31ebcec016f87ff4411074d44",
    "verify-hrr catalog:p1xp1":
        "3f23ee246412bc87ba6297145c22aff7a33cf8c3d91a2835991a2431e0dc0800",
    "verify-hrr catalog:p1xp1xp1":
        "b0bb81508e6706cdee886f56d4ab20b898bef2c7f090b42ba1228d252f550c8a",
    "verify-hrr catalog:bl1_p2":
        "5b671366fa118409df4ffaed881c8be7bbb8561c77c72e5eff42bc72e134621b",
    "verify-hrr catalog:bl2_p2":
        "a41890916af32ff0cde318a8e4569f421eb0117b9749ef9c503c72014b531b5f",
    "verify-hrr catalog:bl3_p2":
        "6171d8cb034cbc9040829f25d38dcd8d8f3e01c7d60804bdf04092a9ba041c16",
    "verify-hrr catalog:p1xp2":
        "097dd4a8a0f7271bdb1159eb108a9fd3b48c01f8fcb7051c7cc14dfa6d957d5b",
    "verify-hrr catalog:p1xp2 --coeff-range -20..20 --trials 4 --seed 3":
        "115ddf13ab510e96755e557a9f5e346734e8fffb0f8a6e9d2979878295fd9360",
    "verify-step catalog:p2 --divisor 2,0,0 --ray 1":
        "7796ada5c5d687c7fb3ae2f003bf87812367613cdec0eb38d11ea365feb75b09",
    "verify-step catalog:p1xp1xp1 --divisor 3,-2,1,0,-4,2 --ray 4":
        "27fefb4c33113d5cb262e7f602a4e8dfe22e7fff728ad9d865fd091e6d0d317e",
    "verify-step catalog:bl3_p2 --divisor -5,7,0,2,-1,3 --ray 2":
        "193a65210d3f15228a009b77897c33ea9524a8589e515e370dee6965c75d0f88",
    "verify-step catalog:p4 --divisor -3,1,4,-1,5 --ray 0":
        "13f5e96f7af756f7142f4dca0fd0a8a00ccefc098cc0076f23ebacdfcbcbd53f",
    "verify-step catalog:p1xp2 --divisor "
    "1000000000000000,-999999999999999,3,0,-1000000000000000 --ray 2":
        "bf25249b7cba9a68404910beb7434a1e0c90b3444ab21a7230e651f789067cd6",
    "verify-step catalog:f3 --divisor -1000000000000000,0,7,1000000000000000 --ray 3":
        "94dce16777a43abdc40743bc7bbce0b576157ed2f088ee1dbf3d3e3e57012936",
}


@pytest.mark.parametrize("command", GOLDEN)
def test_cli_stdout_matches_golden_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
