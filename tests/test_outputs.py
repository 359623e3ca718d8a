"""Golden output digests: the files and reports of fixed runs, byte for byte.

The SHA-256 digests were recorded on x86-64 with numpy 2.4.6.  A change to
the algebra that moves any output bit, a signed zero included, shows here
as a changed digest.
"""

import hashlib
import re

import pytest

from superconf import cli


def sha(data):
    return hashlib.sha256(data).hexdigest()


CONSTRUCT_FILES = {
    ("catenoid-helicoid", "--grid", "9,9", "--sign", "both",
     "--project", "stereo"): (0, {
        "catenoid-helicoid-minus.csv":
            "c89fe155f1d38f943cae4f20beb052b82b16071b18237cfe52c5267961e716a9",
        "catenoid-helicoid-minus.mesh.json":
            "70523b1b9123117cd45cce815ed6c9da9421688871f9cb90afc7715b66d86e93",
        "catenoid-helicoid-minus.obj":
            "df94999a59bcefcbb4b00b6c525dac0e8a12c090a19f1bc799ca88a2b26cdd69",
        "catenoid-helicoid-plus.csv":
            "29d7aed3a6049cbe1793a34b2d6f39815988282599baa571e4fc0955afbcce1c",
        "catenoid-helicoid-plus.mesh.json":
            "123e1f3c7f4b266f8844b599edde8889e7091dd95227cda28fa1af80707ec2db",
        "catenoid-helicoid-plus.obj":
            "9062e5f26f1c2d3107bd3698da45b9d85c888bfe09cf283095ae11cfb41a2a9d",
        "catenoid-helicoid-summary.json":
            "6ad3e0dd8976827513c20f02effb121a46d77466c6f5295e80298a3c7914df16",
    }),
    # its plus surface has no clear row, so the run exits 3
    ("whitney", "--grid", "9,9", "--sign", "both"): (3, {
        "whitney-minus.csv":
            "908123450e49bbca6bfda1858187aebcb0280502db83f2ef7a01518124315169",
        "whitney-minus.mesh.json":
            "c7a211086240154c24764cb351a36db09794ff5a4856c5342d14e35660bfd159",
        "whitney-plus.csv":
            "e03f233134b663fd783da13345f196947e402b1f76e117e101d9fc3601ce2145",
        "whitney-plus.mesh.json":
            "c74c37a1e98fae07005212adf04665d49ff71a52166547dda6a15c4ce132aca0",
        "whitney-summary.json":
            "410f5f999d5419fd56315b169c2cd8f91661442fce210fdb98c9497c6bdaa27e",
    }),
    # its CSV holds -0.0 cells, whose sign the digest pins
    ("enneper-r3", "--grid", "9,9", "--sign", "both",
     "--project", "drop:3"): (0, {
        "enneper-r3-minus.csv":
            "cd59d73547f7ce62fd4f72defaf39c5650745441f57cc7be1aadf9d975218e11",
        "enneper-r3-minus.mesh.json":
            "f931d0c0c61abfedbdc3db7185b29e91ef852ab855f78842ffdad34bdc773fd5",
        "enneper-r3-minus.obj":
            "756bdbcfa8083e97184c359bf4be487318284f61b09961f208989f1bca68b5de",
        "enneper-r3-plus.csv":
            "474e8d3e7ddb5f96b129687bfc6b73261d4a08a496389ca405716cad605227c8",
        "enneper-r3-plus.mesh.json":
            "0969b704293985c54b7a467cd6ad8c3cf1104ea024f43ba608d4ce37f85e85cd",
        "enneper-r3-plus.obj":
            "756bdbcfa8083e97184c359bf4be487318284f61b09961f208989f1bca68b5de",
        "enneper-r3-summary.json":
            "0da0c0243f17f7e9727d6abd5a93687e24126683629434b88f872e91ec48c774",
    }),
    # inline curves through complex log, sqrt, exp, sinh and cosh
    ("(cos(log(z + 3)), sin(log(z + 3)), -i*log(z + 3), 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "ac83893144989b63a5d88d19c7156d5265a0b4423eb006357499c3707bddc543",
        "inline-minus.mesh.json":
            "8ef791b9f7389ce8afb9266ec7666620f1df845f18d6c7aa8f2bcd09785d8871",
        "inline-plus.csv":
            "7cae2e9635744088c31c5e5ae4f4c0b8f1a913d6269067fdb7fbf370ab45a136",
        "inline-plus.mesh.json":
            "cc883f18eb43842ed1360f2266f05fdfef5cbd91aa5842014626d1e1d7ddcdf8",
        "inline-summary.json":
            "013750a721a4c99196a864f03758215781af643249baf5c13222ec141e152243",
    }),
    ("(cosh(sqrt(z + 2)), -i*sinh(sqrt(z + 2)), sqrt(z + 2), 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "59c6fc4735225fe4a605a96a2a81e76f4d847e498929ab934dea5de2bbbf7ec3",
        "inline-minus.mesh.json":
            "19202e7591e8e8db521b24477ce19df95e07add19a23648df027574c5aebb514",
        "inline-plus.csv":
            "3bc8a040b849450a644e062f029a536ddcb8c19de1012326dff69c5f4da3a64a",
        "inline-plus.mesh.json":
            "ae2919823ca88545c340c930078f514c98ba321f33dcb6f1af37912de0ec6344",
        "inline-summary.json":
            "6488750fe9c1a58d9bcd0287732cb208cb25183a3ccbc13bc07df4507f122dc5",
    }),
    ("(cosh(exp(z)/2), -i*sinh(exp(z)/2), exp(z)/2, 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "3c03bdf504485aa0ecb20645c453fcdf64809225947278fdf01ffa7922a57a77",
        "inline-minus.mesh.json":
            "80e8d9d6ec9075d65f3f8a885cf568775e9dac4aa6f6740ba2c3da4a12251f55",
        "inline-plus.csv":
            "fb83a389173f2ca7430a3405030b1c0e8f6f5c13538c47562c52f1c89b8895ae",
        "inline-plus.mesh.json":
            "6644efb911bcce55e261da558bee7c528d6727fc782a9632930099f9d3df0a3e",
        "inline-summary.json":
            "2b9720b59436a6df776c84e1a090bec60e6a3a1c7ae02fa3dc77f00c8496c02e",
    }),
}

REPORTS = {
    ("verify", "--curve", "whitney"):
        (3, "75c48221c6345edb2cb35b9f8fe5e9d9b413fbe9bc59d71e813677283575f729"),
    ("invert", "--curve", "catenoid-helicoid", "--center", "0,0,0,5"):
        (0, "40d92f9abc1a254e5db1e5a615ed2f52fcad21f342a9c6dbc50ae6497fcefbc2"),
    ("dual", "--curve", "whitney"):
        (0, "036faac25e733ce57204d465a8ab3b76a8d05be430cc2d1e000d2c1ddeb430bc"),
    ("quadric", "--curve", "veronese"):
        (0, "fb3fa0dcdbcce790f9eb6c586b216d6a15deb2c4007fae0b9d5693fed0333664"),
    ("project", "--entry", "veronese"):
        (0, "c0418a4bea4e3344456c39997da3834306448714508db6a582e938a6f31a42cc"),
    ("selftest",):
        (3, "a1d611420a899f1ce0d3f7c8ef66ece4582391ab5c311fe12da70e90c03758b3"),
    ("certify", "--curve", "enneper-r3"):
        (0, "69d2468c9c6c18a4b553ce4d40cdd8add7945467db1c4f9d60a0e8092a9b991b"),
    # the MinimalPair path; veronese above takes the closed-form one
    ("quadric", "--curve", "catenoid-helicoid"):
        (0, "be9553cf2b3a788cc3af5908a9e7e5378eeacd0cc18c1b4a606db920d652c405"),
    ("project", "--entry", "h4-flat-torus"):
        (3, "d07eabf734fca4f91c70c14b5ae72cf5b1b5872109dfafbb9932abb132deb324"),
}


def construct_id(argv):
    """The catalog curve, or "inline-" and the function an inline curve
    applies to z."""
    inner = re.search(r"(\w+)\(z\b", argv[0])
    return f"inline-{inner.group(1)}" if inner else argv[0]


def report_id(argv):
    """The subcommand, and with it the curve or entry for every run of a
    subcommand after its first."""
    first = next(a for a in REPORTS if a[0] == argv[0])
    return argv[0] if argv == first else f"{argv[0]}-{argv[2]}"


@pytest.mark.parametrize("argv", list(CONSTRUCT_FILES), ids=construct_id)
def test_construct_files_match_golden_digests(argv, tmp_path, capsys):
    curve, *rest = argv
    code = cli.main(["construct", "--curve", curve, *rest,
                     "--out", str(tmp_path)])
    capsys.readouterr()
    written = {p.name: sha(p.read_bytes()) for p in tmp_path.iterdir()}
    assert (code, written) == CONSTRUCT_FILES[argv]


@pytest.mark.parametrize("argv", list(REPORTS), ids=report_id)
def test_report_stdout_matches_golden_digest(argv, capsys):
    code = cli.main(list(argv))
    assert (code, sha(capsys.readouterr().out.encode())) == REPORTS[argv]
