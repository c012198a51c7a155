"""Golden outputs: the sha256 of stdout for fast CLI runs.

The lines holding a timestamp are dropped before hashing; everything else a
run prints is pinned. A refused run pins its exit status and its error
line. A change that moves any of these outputs on purpose re-pins the hash
and says why in CHANGES.md.
"""

import hashlib

import pytest

from rankmatch.cli import main

EDGE = ("--gen", "weighted_random", "--n", "5", "--seed", "3", "--edge", "u4,v4")
UT100 = ("simulate", "--gen", "upper_triangular", "--n", "100", "--trials", "200",
         "--seed", "42")


def _evaluate(spec, which, tau, gamma):
    return ("bounds", "evaluate", "--spec", spec, "--which", which,
            "--tau", tau, "--gamma", gamma)


GOLDEN = {
    _evaluate("simple-exp", "simple", "0.3", "0.7"):
        "7420a0666faf7273d08526eb7a41f2326e8e87f6fe2b794e94f43a5c065f8dba",
    _evaluate("simple-exp", "simple", "0.8", "0.2"):
        "caa9562f8af79be87df83347ca86a2a4e97385822c46ec36fbad217bbae1e80d",
    _evaluate("half-exp", "simple", "0.3", "0.7"):
        "31e38fdda3451555abb19194cff927b1e90d673e058c3ac7eb1093ce9a777d35",
    _evaluate("half-exp", "simple", "0.8", "0.2"):
        "78c3906056fe5625e3b720733e5d1f27dbec3f0c1463f39391d952ec1540486a",
    _evaluate("simple-exp", "improved", "0.3", "0.7"):
        "14a71ab9478aa55ac5feef1ae003e5ab773631a2490bfee3df32e269edaa8b0e",
    _evaluate("simple-exp", "improved", "0.8", "0.2"):
        "55a51faa82589ac66859da52622b56b6a4bb169d19d4f5772c9ee8931fb29661",
    _evaluate("half-exp", "improved", "0.3", "0.7"):
        "d5ea4ef96693d87b6a335b10b5a74deebde157e8b18848e9ce54bcf8494cde07",
    _evaluate("half-exp", "improved", "0.8", "0.2"):
        "bd766d50841df35bfcfcab06a1c715e09cf7768768dac07bd97f4cf2dbede119",
    ("bounds", "minimize", "--spec", "simple-exp", "--which", "simple"):
        "d56225478e779861bbf0b1318161869fba429d1658b9efc5efb7de2e69b79b67",
    ("bounds", "minimize", "--spec", "half-exp", "--which", "improved"):
        "3637b6e14ad96a732cff26e7fdc8d4de2dd41e007fb18d141d2b2bd0f48ed48f",
    ("pair-gain", *EDGE, "--grid", "40"):
        "28257671197b679f3efbf77caa249731e91490b1b601739be20caa965d2f9f89",
    ("pair-gain", *EDGE, "--spec", "adversarial", "--grid", "40"):
        "02a55b657ecf03c225f809ec31d2ea3ec025fb67dd84078e90365e05b7994b61",
    # unit weights and a saturating curve: u's offers tie exactly
    ("pair-gain", "--gen", "upper_triangular", "--n", "6", "--spec", "simple-exp",
     "--grid", "40"):
        "13e99ae49c4d756e4b51e493f35dca8fcdc15fc7447731085df6cf66b76e4033",
    ("thresholds", *EDGE, "--grid", "16", "--format", "csv"):
        "61f9f2b8ba6007d3e9687c1845a41147058ad7a54ae17a5c28f78621c242efa2",
    # the JSON profile also prints tau and gamma
    ("thresholds", *EDGE, "--grid", "16", "--format", "json"):
        "224a16d7ba3df0a719325c8103e44e4d969d532a279739f6524fb057005d3749",
    ("simulate", "--gen", "weighted_random", "--n", "6", "--p", "0.5", "--trials", "50"):
        "0283c640c2444664b5967ca1faac51a73d489d0227b83d2e0e80721ca731b055",
    (*UT100, "--spec", "half-exp"):
        "904902f10d950fea61c3758b11b208a299659b2557249cc16ffc92926fc86973",
    (*UT100, "--spec", "adversarial"):
        "8aa9f5d2f85bf99cd3ff603ea6db99e3d161d1b416648acd35d68a0385b807a0",
    # unit weights and a saturating curve: offers tie exactly
    ("simulate", "--gen", "upper_triangular", "--n", "30", "--trials", "200",
     "--seed", "42", "--spec", "simple-exp"):
        "3ef78e75024644004ea13bce3784e2f30ebf32e284ebe4b8d1f7559f7bec98b7",
    ("verify", "--scale", "0.002"):
        "b663db99f7f65c4a6dd00cef4724e1c888ec187d98e92d68298039f888ae563f",
}

# the bound surfaces refuse a spec that is no weight split: exit 2, nothing
# on stdout and this one line on stderr
REFUSED = tuple(_evaluate("adversarial", which, tau, gamma)
                for which in ("simple", "improved")
                for tau, gamma in (("0.3", "0.7"), ("0.8", "0.2")))
REFUSAL = ("error: the bound surfaces hold only where a + b = 1/2; "
           "the adversarial spec is no weight split\n")


@pytest.mark.parametrize("argv", [*GOLDEN, *REFUSED], ids=" ".join)
def test_cli_output_is_pinned(capsys, argv):
    status = main(list(argv))
    out, err = capsys.readouterr()
    if argv in REFUSED:
        assert (status, out, err) == (2, "", REFUSAL)
        return
    assert status == 0
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if '"timestamp"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN[argv]
