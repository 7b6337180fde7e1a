"""Seeded CLI outputs pinned byte for byte by their SHA-256 digests.

Each case runs one `errstat` invocation in-process on the committed table
`tests/data/golden.csv`, requires exit code 0 and hashes its stdout,
stderr and every file it writes.  Together the cases cover every subcommand, both quantile
estimators, `--nprime`, `--orientation higher`, `sip --pair` with its SVG,
CSV and JSON outputs, both `corr` modes and all four `simulate` studies,
so a refactor that moves one bit of any verdict fails here.

The digests depend on the installed numpy (sorting, summation order,
log/exp); they were computed with numpy 2.4.6.  After a deliberate output
change or a numpy upgrade, `python tests/test_golden.py` prints the
current digests.
"""

import contextlib
import hashlib
import io
import os
import warnings

import pytest

from errstat.cli import run

TABLE = os.path.join(os.path.dirname(__file__), "data", "golden.csv")
SEED = ["--seed", "17"]

# name -> (argv, extensions of the files it writes via --<ext> PATH)
CASES = {
    "stats_mue": (["stats", TABLE, "--stat", "mue", *SEED], ("json", "csv")),
    "stats_q95_hd": (["stats", TABLE, "--stat", "q95", *SEED], ("json",)),
    "stats_q90_type7": (["stats", TABLE, "--stat", "q90", "--quantile-method", "type7", *SEED], ("json", "csv")),
    "stats_rmsd": (["stats", TABLE, "--stat", "rmsd", "--boot", "300", *SEED], ("json",)),
    "compare_mse": (["compare", TABLE, "--pair", "M01,M02", "--stat", "mse", *SEED], ("json", "csv")),
    "compare_q95_hd": (["compare", TABLE, "--pair", "M01,M02", "--stat", "q95", *SEED], ("json",)),
    "compare_q95_type7": (["compare", TABLE, "--pair", "M03,M04", "--stat", "q95",
                           "--quantile-method", "type7", *SEED], ("json",)),
    "rank_mue": (["rank", TABLE, "--stat", "mue", *SEED], ("json", "csv", "svg")),
    "rank_q95_nprime": (["rank", TABLE, "--stat", "q95", "--nprime", "20", *SEED], ("json",)),
    "rank_rmsd_higher": (["rank", TABLE, "--stat", "rmsd", "--orientation", "higher", *SEED], ("json", "csv")),
    "sip": (["sip", TABLE], ("json", "csv", "svg")),
    "sip_pair": (["sip", TABLE, "--pair", "M01,M03", "--ubar", "0.3", *SEED],
                 ("json", "csv", "ecdf", "abs-ecdf")),
    "sip_pair_type7": (["sip", TABLE, "--pair", "M02,M01", "--quantile-method", "type7", "--boot", "257", *SEED],
                       ("json", "abs-ecdf")),
    "corr_spearman_errors": (["corr", TABLE], ("json", "csv", "svg")),
    "corr_pearson_values": (["corr", TABLE, "--pearson", "--on", "values"], ("json", "svg")),
    "simulate_gh": (["simulate", "gh", "--g", "0.2", "--h", "0.1", "--n", "50", *SEED], ("json", "csv")),
    "simulate_type1_mue": (["simulate", "type1", "--stat", "mue", "--n", "20", "--rho", "0.5",
                            "--reps", "100", "--boot", "100", *SEED], ("json",)),
    "simulate_type1_q95_type7": (["simulate", "type1", "--stat", "q95", "--quantile-method", "type7", "--n", "20",
                                  "--reps", "100", "--boot", "100", *SEED], ("csv",)),
    "simulate_hdstudy": (["simulate", "hdstudy", "--n", "15,30", "--reps", "100", *SEED], ("json", "csv")),
    "simulate_corrtransfer": (["simulate", "corrtransfer", "--n", "20", "--rho=-0.5,0.5", "--reps", "100", *SEED],
                              ("json",)),
}

DIGESTS = {'stats_mue': {'stdout': '14fb68094101bad69d8921f90643f935b12805626eed877427258666a405b93f',
               'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
               'json': 'abbad7602d9e05748273bd074fdb1808b8af588786a4958cc2b70a0a284d4605',
               'csv': '638c5c4ec0f8f859b96594d025d0a161b5a48deb62bb9ebfd81359f8d9b2fd7a'},
 'stats_q95_hd': {'stdout': 'ebae43adad15256ef17bf27e6bef028d14ed0bccedad9a27b1404ff1dfccfdcf',
                  'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                  'json': '0996249d7d0c9de4c3e51410e8819e53fd2bb81de74ed3ac8d978de5ce79fd8a'},
 'stats_q90_type7': {'stdout': '9b2414f01b392cd298befcf982905eb06f3c64ef4e854def1feede19455aebc7',
                     'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                     'json': '25c8a5d65efde53f5268e35dcae1c907b76c5c5466590bdcebafb8baedcdafac',
                     'csv': '3829e94e0fd51c4cba27739edf7f5acd56f1bff8ec3dc8099a38c5c689d60bb6'},
 'stats_rmsd': {'stdout': 'd2874a635dec33f4272778d65b9cd38e62ab47e039e9793e270a2cce1a110299',
                'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                'json': '66efa12075eccaef25b0942fdf7e9383a996205aabc3777994694502d5cad982'},
 'compare_mse': {'stdout': 'dd66180f723e1e3624f27ce9762a96ad4162de16105bfda75adce7264fa8763f',
                 'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                 'json': '01c574329cd9a9d20ce96af22d7a73343b860fdfb01ede46f7898feeb36941ef',
                 'csv': '7ac0520706076bc0c859327f15c1a206730abc75bc64ab1ded7ed340fe497b3c'},
 'compare_q95_hd': {'stdout': 'd2c380d551ff4d407564b9e7c6f7b0e74ff8fe09e27f9656eb1ca8adfb435acb',
                    'stderr': '674163be7bb8a244dede7348d31293999bb3580446b8b31e00ecf563234729c8',
                    'json': 'bfc8a7b0f1b811830d11bca2097cd2ac911c4d4b6cf9629ff6ddcd45bf7d051d'},
 'compare_q95_type7': {'stdout': 'b1a21d528c392df3710a3205671e98d7797cfbc47177c7c2a4fcdabde372e29b',
                       'stderr': '674163be7bb8a244dede7348d31293999bb3580446b8b31e00ecf563234729c8',
                       'json': 'd9d832f72724c978ff907ff962cd5e5a1ba5a9362b9c2953a71e905805a67fa5'},
 'rank_mue': {'stdout': '4d70dff79cf9475f9f020557c571733d630bc9a3d1400ae4bc07e8372cc0cd68',
              'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
              'json': 'c1476ab3f4e195971fedf3151dc6eee1914098b878d3baa239b5206103e55f92',
              'csv': '07dce046b1a222e1724bf553fbe97e1731839103f3c978016999481664aa0f1c',
              'svg': 'eb699dda888d9f260ecf1cd9e5396852ae4b240acbc31efd340d94cc77cdbcac'},
 'rank_q95_nprime': {'stdout': '61e61b39a5b0d5c03d0f07803fbf1c45549348703a9a7b821a1357b124a6209c',
                     'stderr': '65987d20eb7cc83424b951803466deb51dfd02cb719fd740d5066b9d64992f2f',
                     'json': '5485b9144980ad2964869403f2385a27472152a95ddb45cf612bde891a13c4f8'},
 'rank_rmsd_higher': {'stdout': '28ed5260b2fce8cc452d7a491e85739c6b683deb52db6438b0a948919df92bd4',
                      'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'json': 'b7bbbda26f8cc30094afdd2aafbc242e07a396693ea502ae59cbce32ee5de8ec',
                      'csv': '9608bf9fdd96712c7b39c17c3df6ec8bd572e9e7c3aef06862789d9bbdb2be27'},
 'sip': {'stdout': 'fccc610a4e3d0dfc51225644bfbdb800b10190c31f51ce79d2e3dcbbc1ecf74e',
         'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'json': '2dfd24256bdf5ad68e7eb7069f47f243bc35b0e0856693ecf4f819d8d4437663',
         'csv': '12257500a3526de16ed03ddd7fcdb8f85a52286c6f6008b57a15d96f7dd9dd3a',
         'svg': 'eaf8f1f9ea1bfa153ca212a53f1a60c29c23011c19bf6a4aeb5b16d68942cb68'},
 'sip_pair': {'stdout': 'b328be3b9120f2035b9b1f9bebc3c32dc01d663361b57f31310006b88b5cdd8d',
              'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
              'json': '8729f1c3f880425ac3bd1067628a68055cfa64168bec0ab509e91be6113674bd',
              'csv': '6c95422825c1fa8f0709898e476e9d260ee79fc087475d883670ed0c386c82c8',
              'ecdf': '72b35d56ae2e5147064e15bbca3692846159e1981b9fe31b815008547cf3793d',
              'abs-ecdf': 'd91e4bd616dc86a6b63caaeaf03dfc09f41ad4412a81a95ba699268bd38b271f'},
 'sip_pair_type7': {'stdout': '58cecd1a8b2991e04bd3d412183db082a27121bd4eb9627bf17f3e8537d98f0d',
                    'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                    'json': 'fd758feca646a3b44eb919105ea68bf21393b74aee5ed16c75bbe1758e614ce8',
                    'abs-ecdf': 'ff4ff2f038bc19f7cca4bad69aa338897916cf3dfb8987c96f52a91a210282c1'},
 'corr_spearman_errors': {'stdout': '10e529948826dfa52df113d16d9ef7c627d2064bec485fb9c6061c5c3c7d5878',
                          'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                          'json': '6ecdb4b6505a137b4835658f1b1ab02845a3951e398bc5bdb1b8226379b8c7c5',
                          'csv': '01fdd3693d659ffd1b471777ea1bad570a9615231261340b6d748f9ea8398bfe',
                          'svg': '64d290606bfcbfaab9b02006323d945a40dd72f80f1248ac73730953bd021442'},
 'corr_pearson_values': {'stdout': '1e325699b142b20f56acb86b6def9ee5da6e2b42bd0fb936b2303e89d5ba409d',
                         'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                         'json': '7120d1531a5839fae071f7b71e09a386b7ab96306505efe1a994c63d81db95e1',
                         'svg': '487452257c28372b9bd25550b832b6745cb2f5301502c1818317d510523e4810'},
 'simulate_gh': {'stdout': '5009f9051387b7ca183de5ee99c9ce6786a41eaaf9ddf2b4743456b1ba032fd3',
                 'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                 'json': '73d0fabecb2e9731199fd397a11e0fd130461e99cd021b10f78d4e8722be225e',
                 'csv': '10e31b1ddb0d80892eaaa057c607b2c4c514874e1ec6626a31fe0b4428e72622'},
 'simulate_type1_mue': {'stdout': '6124ee4be727948a8c7b5eb19c74601804183594a08da2e76fb1abae1ee8689a',
                        'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                        'json': '1a8c7d5234f36afcef39aa65b8d91676d7af9b4ab4867f8a881dad7807998a66'},
 'simulate_type1_q95_type7': {'stdout': 'cc3a3e78fb47c0235927511b55a7226414b0d212d5ef95952f772bd26be87fb7',
                              'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                              'csv': '5361fe7f988d49ae1941a721ca3c4017fee500851c6e78912ad4eb9edbf8a553'},
 'simulate_hdstudy': {'stdout': '64a52a3c9476d0493727e1d44703171ebff7d53f0821279ca5c68382bcb662ec',
                      'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'json': '36f6f93c6b4fb2425c70aadd9221c6e6b69e407ec97647fa78cb9e9cf84d210a',
                      'csv': '3e902bcb0f2f608bfc042fc14615ad7d46e7f842f647d328222fd5bd19c02d90'},
 'simulate_corrtransfer': {'stdout': '1d9c18085cd04f49aba104711d365d358347491370b4e3b5afc58a329a07948e',
                           'stderr': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                           'json': '2a71a5ac424f53b45714b3f4c0e281649ae4e2fc10297b1e9e08309597a25749'}}


def _run(name, tmp_dir):
    """Exit code and {stream or file extension: SHA-256 hex digest} of one case."""
    argv, exts = CASES[name]
    paths = {ext: os.path.join(tmp_dir, f"{name}.{ext}") for ext in exts}
    for ext, path in paths.items():
        argv = [*argv, f"--{ext}", path]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.resetwarnings()  # warning filters as in a fresh interpreter
        warnings.simplefilter("default")
        code = run(argv)
    blobs = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    for ext, path in paths.items():
        with open(path, "rb") as fh:
            blobs[ext] = fh.read()
    return code, {key: hashlib.sha256(blob).hexdigest() for key, blob in blobs.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digests(name, tmp_path):
    code, digests = _run(name, str(tmp_path))
    assert code == 0
    assert digests == DIGESTS[name]


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({name: _run(name, tmp)[1] for name in CASES}, width=120, sort_dicts=False)
