"""Golden outputs: the sha256 of stdout for fast CLI runs.

The lines holding a timestamp are dropped before hashing; everything else a
run prints is pinned. A change that moves any of these outputs on purpose
re-pins the hash and says why in CHANGES.md.
"""

import hashlib

import pytest

from rankmatch.cli import main

EDGE = ("--gen", "weighted_random", "--n", "5", "--seed", "3", "--edge", "u4,v4")


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
    _evaluate("adversarial", "simple", "0.3", "0.7"):
        "9b0cf9abbe91f425bfbf9ff9b6606aa832758add505c95034e5d918ce9481b25",
    _evaluate("adversarial", "simple", "0.8", "0.2"):
        "617336b48b161b59210b643586ca5a59c3093894c5b8fd77f9a4e83c407936fa",
    _evaluate("simple-exp", "improved", "0.3", "0.7"):
        "14a71ab9478aa55ac5feef1ae003e5ab773631a2490bfee3df32e269edaa8b0e",
    _evaluate("simple-exp", "improved", "0.8", "0.2"):
        "55a51faa82589ac66859da52622b56b6a4bb169d19d4f5772c9ee8931fb29661",
    _evaluate("half-exp", "improved", "0.3", "0.7"):
        "d5ea4ef96693d87b6a335b10b5a74deebde157e8b18848e9ce54bcf8494cde07",
    _evaluate("half-exp", "improved", "0.8", "0.2"):
        "bd766d50841df35bfcfcab06a1c715e09cf7768768dac07bd97f4cf2dbede119",
    _evaluate("adversarial", "improved", "0.3", "0.7"):
        "3717b9844bbe8a664f7c2da620cf93e5192c92e47ecc4ebcd5dc6ededcf29383",
    _evaluate("adversarial", "improved", "0.8", "0.2"):
        "3c0a6722e5f2a6964a6dbf617d6fe2caef93134a3f3438730b7c1b6c6e244db4",
    ("bounds", "minimize", "--spec", "simple-exp", "--which", "simple"):
        "054a5af962a92267f22e05f0d674829602b242e11025cac65b1e06da1cdc297e",
    ("bounds", "minimize", "--spec", "half-exp", "--which", "improved"):
        "d2de538c2608bb25a07913bad1f0d871fccc0a063155327b2cde3d224144f9aa",
    ("pair-gain", *EDGE, "--grid", "40"):
        "28257671197b679f3efbf77caa249731e91490b1b601739be20caa965d2f9f89",
    ("thresholds", *EDGE, "--grid", "16", "--format", "csv"):
        "61f9f2b8ba6007d3e9687c1845a41147058ad7a54ae17a5c28f78621c242efa2",
    ("simulate", "--gen", "weighted_random", "--n", "6", "--p", "0.5", "--trials", "50"):
        "0283c640c2444664b5967ca1faac51a73d489d0227b83d2e0e80721ca731b055",
    ("verify", "--scale", "0.002"):
        "b663db99f7f65c4a6dd00cef4724e1c888ec187d98e92d68298039f888ae563f",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_is_pinned(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(keepends=True)
                   if '"timestamp"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN[argv]
