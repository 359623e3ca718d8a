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
            "3a6d708a90feb2c602c28a3bc436b3480f9ff02fdec299a74070904781be3494",
        "catenoid-helicoid-minus.mesh.json":
            "70523b1b9123117cd45cce815ed6c9da9421688871f9cb90afc7715b66d86e93",
        "catenoid-helicoid-minus.obj":
            "df94999a59bcefcbb4b00b6c525dac0e8a12c090a19f1bc799ca88a2b26cdd69",
        "catenoid-helicoid-plus.csv":
            "96342c8f75c972901d2f622904cf0e5d1304a87550f4898e988c74909e1fd77f",
        "catenoid-helicoid-plus.mesh.json":
            "123e1f3c7f4b266f8844b599edde8889e7091dd95227cda28fa1af80707ec2db",
        "catenoid-helicoid-plus.obj":
            "9062e5f26f1c2d3107bd3698da45b9d85c888bfe09cf283095ae11cfb41a2a9d",
        "catenoid-helicoid-summary.json":
            "5adabbb80f863f60f93d3cc2ffb46ddd3e3b05db69edf9de5b74cb3e9bdce578",
    }),
    # its plus surface has no clear row, so the run exits 3
    ("whitney", "--grid", "9,9", "--sign", "both"): (3, {
        "whitney-minus.csv":
            "053e2f9bf6e8a5e66a39427a4dda784a73efd0bcba03dbbae91c2579ba811980",
        "whitney-minus.mesh.json":
            "c7a211086240154c24764cb351a36db09794ff5a4856c5342d14e35660bfd159",
        "whitney-plus.csv":
            "8db1aa21341f79cd31ed5b6a8a0a04c988758e3fb2107db3221f152520f8998e",
        "whitney-plus.mesh.json":
            "c74c37a1e98fae07005212adf04665d49ff71a52166547dda6a15c4ce132aca0",
        "whitney-summary.json":
            "410f5f999d5419fd56315b169c2cd8f91661442fce210fdb98c9497c6bdaa27e",
    }),
    # its CSV holds -0.0 cells, whose sign the digest pins
    ("enneper-r3", "--grid", "9,9", "--sign", "both",
     "--project", "drop:3"): (0, {
        "enneper-r3-minus.csv":
            "9ea162a02c222926e2599cd6d38f694b1fdfd18c44db153ea75e7fd47f3ed5f4",
        "enneper-r3-minus.mesh.json":
            "f931d0c0c61abfedbdc3db7185b29e91ef852ab855f78842ffdad34bdc773fd5",
        "enneper-r3-minus.obj":
            "756bdbcfa8083e97184c359bf4be487318284f61b09961f208989f1bca68b5de",
        "enneper-r3-plus.csv":
            "ffec35d29b38ecb4c424a830da287d345927a9e1c46916a62beca62d6ad93957",
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
            "d4c2f7746ec42be0cef83cc85bcf9c9d07f9362fe33a7d2d7fe203d59efb3a89",
        "inline-minus.mesh.json":
            "8ef791b9f7389ce8afb9266ec7666620f1df845f18d6c7aa8f2bcd09785d8871",
        "inline-plus.csv":
            "70d0f02eadbc4f7c46a7189a0c112afc479fbee94bf37491c132391c29232b7d",
        "inline-plus.mesh.json":
            "cc883f18eb43842ed1360f2266f05fdfef5cbd91aa5842014626d1e1d7ddcdf8",
        "inline-summary.json":
            "e0e3e48876747fb783e6a7cfd53e8aa13a91c63278c27eb42a2c4c71ac64afc0",
    }),
    ("(cosh(sqrt(z + 2)), -i*sinh(sqrt(z + 2)), sqrt(z + 2), 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "8b9b59fe73a74b8b1a49e4ece43178c0abb12559093ce707996def2fc0dbc39d",
        "inline-minus.mesh.json":
            "19202e7591e8e8db521b24477ce19df95e07add19a23648df027574c5aebb514",
        "inline-plus.csv":
            "13eeb2e4dc8922e27abaf4988c926a898fd1e3334e8244bd427d2d6a2112ab00",
        "inline-plus.mesh.json":
            "ae2919823ca88545c340c930078f514c98ba321f33dcb6f1af37912de0ec6344",
        "inline-summary.json":
            "6488750fe9c1a58d9bcd0287732cb208cb25183a3ccbc13bc07df4507f122dc5",
    }),
    ("(cosh(exp(z)/2), -i*sinh(exp(z)/2), exp(z)/2, 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "8a51db8e47ec588deda7fd1c2b8f586128164af89b787dd5eb62178e28941217",
        "inline-minus.mesh.json":
            "80e8d9d6ec9075d65f3f8a885cf568775e9dac4aa6f6740ba2c3da4a12251f55",
        "inline-plus.csv":
            "712651a20c0cc8b8f86678dac632cc48ea6e08340703fe38ff9436580ee188fd",
        "inline-plus.mesh.json":
            "6644efb911bcce55e261da558bee7c528d6727fc782a9632930099f9d3df0a3e",
        "inline-summary.json":
            "95e64bbfb0ec1e63f00eebf7649776e3548c081515b5d9b85bc0b8bf1588bd07",
    }),
}

REPORTS = {
    ("verify", "--curve", "whitney"):
        (3, "687cb01eaa34c25dbfbb77fc1136f02e115bec03a871e5f32029541cd82625b2"),
    ("invert", "--curve", "catenoid-helicoid", "--center", "0,0,0,5"):
        (0, "40d92f9abc1a254e5db1e5a615ed2f52fcad21f342a9c6dbc50ae6497fcefbc2"),
    ("dual", "--curve", "whitney"):
        (0, "036faac25e733ce57204d465a8ab3b76a8d05be430cc2d1e000d2c1ddeb430bc"),
    ("quadric", "--curve", "veronese"):
        (0, "fb3fa0dcdbcce790f9eb6c586b216d6a15deb2c4007fae0b9d5693fed0333664"),
    ("project", "--entry", "veronese"):
        (0, "044d831d97a7f6fd61160c08f903b26f8b3b7e2d48c668438ea11108c693b3ab"),
    ("selftest",):
        (3, "d117f892cdc996f13ee0c05d721e679e743b8c9aaa7748d9cfe5318d4e254e4b"),
    ("certify", "--curve", "enneper-r3"):
        (0, "8f9113c2e39c5b0b7c8cea55480a7f07cfc1d6fa1fb5a688c22591ee03e152bd"),
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
