"""Golden output digests: the files and reports of fixed runs, byte for byte.

The SHA-256 digests were recorded on x86-64 with numpy 2.4.6.  A change to
the algebra that moves any output bit, a signed zero included, shows here
as a changed digest.  No output sum goes through BLAS, so the digests do
not depend on the BLAS kernel; tests/test_blas_kernels.py reruns these
commands under other kernels.
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
            "919af8b4b6e752e994aad868758ff409f65d84ddfcd84f0f1e1e40fea03a8063",
        "catenoid-helicoid-minus.mesh.json":
            "70523b1b9123117cd45cce815ed6c9da9421688871f9cb90afc7715b66d86e93",
        "catenoid-helicoid-minus.obj":
            "df94999a59bcefcbb4b00b6c525dac0e8a12c090a19f1bc799ca88a2b26cdd69",
        "catenoid-helicoid-plus.csv":
            "13c5361eb1af251e9c8c46551ff4ecc76314fe56472c45bf4e82330dabdc0900",
        "catenoid-helicoid-plus.mesh.json":
            "123e1f3c7f4b266f8844b599edde8889e7091dd95227cda28fa1af80707ec2db",
        "catenoid-helicoid-plus.obj":
            "9062e5f26f1c2d3107bd3698da45b9d85c888bfe09cf283095ae11cfb41a2a9d",
        "catenoid-helicoid-summary.json":
            "0e30d6baeda8a9ae889baa0fbfd8da0fce3da622931732f2cbefee87d0227d01",
    }),
    # its plus surface has no clear row, so the run exits 3
    ("whitney", "--grid", "9,9", "--sign", "both"): (3, {
        "whitney-minus.csv":
            "c0a34b7854fee17b55ef7b61da73e2ec1e73613110b0c2fc33761f74fcaf115f",
        "whitney-minus.mesh.json":
            "c7a211086240154c24764cb351a36db09794ff5a4856c5342d14e35660bfd159",
        "whitney-plus.csv":
            "8f18f9c2d669a1e60abd52b5ef1b5d7f110a77991c368647d350d1bbba044861",
        "whitney-plus.mesh.json":
            "c74c37a1e98fae07005212adf04665d49ff71a52166547dda6a15c4ce132aca0",
        "whitney-summary.json":
            "ba8802bd17b4d6ede0121a1f6943f08263d0b14b168b24c97c9569b41271d275",
    }),
    # its CSV holds -0.0 cells, whose sign the digest pins
    ("enneper-r3", "--grid", "9,9", "--sign", "both",
     "--project", "drop:3"): (0, {
        "enneper-r3-minus.csv":
            "846cbac906c98383eb803326fdd964ab52f03eb003cba127fe9625a68789d408",
        "enneper-r3-minus.mesh.json":
            "f931d0c0c61abfedbdc3db7185b29e91ef852ab855f78842ffdad34bdc773fd5",
        "enneper-r3-minus.obj":
            "756bdbcfa8083e97184c359bf4be487318284f61b09961f208989f1bca68b5de",
        "enneper-r3-plus.csv":
            "b9ae5aa1220d04935bc921bc272a19b5d6a48a048ed09ed65bbb13a834900239",
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
            "ff006229e56ca2587e747273ac95c8e245b75e81229e4c8f95ee70bccf01d118",
        "inline-minus.mesh.json":
            "8ef791b9f7389ce8afb9266ec7666620f1df845f18d6c7aa8f2bcd09785d8871",
        "inline-plus.csv":
            "a4087128cf842eef4c93ff0a83ce6077dfa625a3ffd4cd0ce3786c4f69e6c711",
        "inline-plus.mesh.json":
            "cc883f18eb43842ed1360f2266f05fdfef5cbd91aa5842014626d1e1d7ddcdf8",
        "inline-summary.json":
            "40d63894fb4e2d7b65ccf2027d080cfe6e037b609a31ea4901941b822b00a8e5",
    }),
    ("(cosh(sqrt(z + 2)), -i*sinh(sqrt(z + 2)), sqrt(z + 2), 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "83a10bb35e0e40b766842784771e391ea521dac8bf5237993f78335db5ef405f",
        "inline-minus.mesh.json":
            "19202e7591e8e8db521b24477ce19df95e07add19a23648df027574c5aebb514",
        "inline-plus.csv":
            "55f9d2f519b5fdaafd0ab4e6a4a2911539a6915a2219cde69deff385363d7aa5",
        "inline-plus.mesh.json":
            "ae2919823ca88545c340c930078f514c98ba321f33dcb6f1af37912de0ec6344",
        "inline-summary.json":
            "14c394ab477bbc0310dcf3e310bb12bb972226f0000034c33bc304b2a2a8a9b1",
    }),
    ("(cosh(exp(z)/2), -i*sinh(exp(z)/2), exp(z)/2, 0)",
     "--domain=-1,1,-1,1", "--grid", "9,9", "--sign", "both"): (0, {
        "inline-minus.csv":
            "e5b8c8ec87a8299d1fd3e7548b5017ffce09d068d6700efb1a37ff5953a997c6",
        "inline-minus.mesh.json":
            "80e8d9d6ec9075d65f3f8a885cf568775e9dac4aa6f6740ba2c3da4a12251f55",
        "inline-plus.csv":
            "d0b348a7c235c76433111442e92901f3938d67545f3267ed6df587e770c70b89",
        "inline-plus.mesh.json":
            "6644efb911bcce55e261da558bee7c528d6727fc782a9632930099f9d3df0a3e",
        "inline-summary.json":
            "64441d435397efdd518570ad638e981859099e1aadaf4dc6c2fe56cb660156bb",
    }),
}

REPORTS = {
    ("verify", "--curve", "whitney"):
        (3, "59b2fc960fcd04b27db379c549fd32b840e77d9a4aaf23a201fc9a86c3cd2297"),
    ("invert", "--curve", "catenoid-helicoid", "--center", "0,0,0,5"):
        (0, "40d92f9abc1a254e5db1e5a615ed2f52fcad21f342a9c6dbc50ae6497fcefbc2"),
    ("dual", "--curve", "whitney"):
        (0, "d3742a674ebee01c73db7285203592755fba596cebc173d8b99712acabac4ebb"),
    ("quadric", "--curve", "veronese"):
        (0, "adafaf91b305c42ae5e102a0332291ac6ec7ae1ad7a96b237b15855f1a0cca0a"),
    ("project", "--entry", "veronese"):
        (0, "044d831d97a7f6fd61160c08f903b26f8b3b7e2d48c668438ea11108c693b3ab"),
    ("selftest",):
        (3, "f918b4daf9d2fd4b4d9407f05959c4439b633d8f0a9ce04a7c30a6aae0a5b5eb"),
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
