"""Byte-identity guard for the CLI.

Every config under ``configs/`` goes through ``verify`` (evaluators
``auto``, ``nd`` and the ``tridiagonal-j-n`` negative control, and
``auto`` cut at ``--tmax 3``), ``solve``
with the closed engine (CSV and JSON) and ``expand`` (powers 0, 3 and 7);
each call's exit code and the sha256 of its stdout must equal the recorded
digests.  A change that alters any emitted byte or exit code fails here.
Run this file as a script to print the digests of the current tree.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from latrec.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def calls(scratch: Path):
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = ["--config", str(path)]
        for evaluator in ("auto", "nd", "tridiagonal-j-n"):
            yield f"verify {evaluator} {path.name}", ["verify", *config, "--evaluator", evaluator]
        yield f"verify tmax3 {path.name}", ["verify", *config, "--tmax", "3"]
        # every config runs the verify engine, so solve reads a closed-engine copy
        closed = scratch / path.name
        closed.write_text(json.dumps(dict(json.loads(path.read_text()), engine="closed")))
        for out_format in ("csv", "json"):
            yield (f"solve {out_format} {path.name}",
                   ["solve", "--config", str(closed), "--format", out_format])
        for power in (0, 3, 7):
            yield f"expand {power} {path.name}", ["expand", *config, "--power", str(power)]


def digests():
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in calls(Path(scratch)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
            out[name] = (status, hashlib.sha256(stdout.getvalue().encode()).hexdigest())
    return out


GOLDEN = {
    'verify auto corner_implicit.json': (0, '13734a612b19f53ebfe5dd48b228e899b3da35371346516b641bb4d5cbd3ff94'),
    'verify nd corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tridiagonal-j-n corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 corner_implicit.json': (0, '87aeb19dcbcd6969621b5ba66eb0eb512930f9e101e81155b1be159868ad7293'),
    'solve csv corner_implicit.json': (0, '3ad2e910714dd4d2ca2af6f5bcf8bc3053e0157ae8d84ddbe710af308e095a48'),
    'solve json corner_implicit.json': (0, 'eed9e0c32e16eb667a3f3d8e34f8771698c92fb3db1b054154a94ee5ac57feff'),
    'expand 0 corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand 3 corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand 7 corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify auto grid2d_drift.json': (0, '932584a56ea2e0430260418a2c9ae550f54f90debff48c02af6db7c02818b383'),
    'verify nd grid2d_drift.json': (0, '932584a56ea2e0430260418a2c9ae550f54f90debff48c02af6db7c02818b383'),
    'verify tridiagonal-j-n grid2d_drift.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 grid2d_drift.json': (0, '829b0cbf7b8dc5df3d7957129463a015448b96038d47a9ee331e308c9fc35526'),
    'solve csv grid2d_drift.json': (0, '58890f6dd03b469cf58e424f2725d92fae591e5e3643fbeb43c3108f84abb069'),
    'solve json grid2d_drift.json': (0, 'f7267a538f192ffa44d9bbe54cd4fdc624e8cbe3dc2e67d6a9504160ad9a4c80'),
    'expand 0 grid2d_drift.json': (0, 'cf8f6d9f0df8c55ff8ff936c8284e99a38b3443c4fc4a01b3e815a87458d9121'),
    'expand 3 grid2d_drift.json': (0, '63b3c8e6af45318f0f34a64f72ad4527e9bbf68fc47bb220d2ab181c797695f7'),
    'expand 7 grid2d_drift.json': (0, '51668a82c4fe256ce9d7602ce8f19a6818c8cb5b816a68698577530e482df1e5'),
    'verify auto heat_quarter.json': (0, '776409f0de9b308354ad30e5fe061198c2741dfc2f92d80124d4420565e37770'),
    'verify nd heat_quarter.json': (0, '776409f0de9b308354ad30e5fe061198c2741dfc2f92d80124d4420565e37770'),
    'verify tridiagonal-j-n heat_quarter.json': (1, '1c265731fb93ea3130361ab0e3b785d019863992b66562f612347591a9b25362'),
    'verify tmax3 heat_quarter.json': (0, '8f60b2498a73120ce778d784cdc504490af0d01cdda305fb780cd22ef3789c67'),
    'solve csv heat_quarter.json': (0, '4fba4e3907138ed6d781d9b3d8d2327cd847aba6842b2c113ff37f8db2ae1620'),
    'solve json heat_quarter.json': (0, '33dd1b98ceba8cfff7e6330fecefce34a3e74ef3674bdc764b11889aa6b49b03'),
    'expand 0 heat_quarter.json': (0, '4cafc1c755c24cc8f6552247dc7c0ba076944c9f41b4a8edf600d4659601d98f'),
    'expand 3 heat_quarter.json': (0, '664d6bc964a64130d13ba9af16f32dd080d03d4f8c11ebbe3146db49e967e9fd'),
    'expand 7 heat_quarter.json': (0, '94261841f70f3217f861d4225fe51739053a95efcd0caffbd33c0793144b2ed8'),
    'verify auto identity.json': (0, '9784575efd4ca49e1838debe45d14816fc19156a319c575302917328767ddc89'),
    'verify nd identity.json': (0, '9784575efd4ca49e1838debe45d14816fc19156a319c575302917328767ddc89'),
    'verify tridiagonal-j-n identity.json': (1, '484e2cf44ba026da1e2061ffce19bc9744b223d144419909226d4725017c1f34'),
    'verify tmax3 identity.json': (0, 'e63a1b408c9b849ffad813b23f8072e01509b4c07bbec9a005c8cdf6b9164ce8'),
    'solve csv identity.json': (0, '0990874e2cdbd816609d815dcd4c4e20049e269be6e952888eeb208ac00f231c'),
    'solve json identity.json': (0, '44321e44820efa175680baa286c0693a24024ae47c9611aaa8c165839799a464'),
    'expand 0 identity.json': (0, 'c0d1c694d4ace40c0875d573d8b9d577bfebcc16f2768530ba3b81d5cb897d66'),
    'expand 3 identity.json': (0, '380c687cdfb9fc876499263ccc7fb021e50887f0f09e06b7531bf4c2615c7ead'),
    'expand 7 identity.json': (0, '54171596e36f104b2b7a4adb71166a409a67ca0de093762504f73c91ddf4b160'),
    'verify auto lattice3d_diffusion.json': (0, 'c3b108abe863ebd9fafdfa98ebf93f543d6903fa257c89d07545f5dbe1ade5ba'),
    'verify nd lattice3d_diffusion.json': (0, 'c3b108abe863ebd9fafdfa98ebf93f543d6903fa257c89d07545f5dbe1ade5ba'),
    'verify tridiagonal-j-n lattice3d_diffusion.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 lattice3d_diffusion.json': (0, 'c3b108abe863ebd9fafdfa98ebf93f543d6903fa257c89d07545f5dbe1ade5ba'),
    'solve csv lattice3d_diffusion.json': (0, '75a68a08c36c43e176d7ed67c2a0e0a9500b449308ee01e8ea0afac3c4257b0b'),
    'solve json lattice3d_diffusion.json': (0, 'f43c07ba3f940406c0c1de6916f54b921022de88d0e52a3aa9efa6b5035658cc'),
    'expand 0 lattice3d_diffusion.json': (0, '12b1bdfc1cf634c8588d5dd48dadd289d43e116abe4ea5d79ab33eca8db45602'),
    'expand 3 lattice3d_diffusion.json': (0, '1eba38db5ff3ef08f86ff516789d9c2847b03de7594f7fb1803af0bdffd786bf'),
    'expand 7 lattice3d_diffusion.json': (0, '11d7deacf3e0a2e3368a3de05ac0785aed2585ea2ca0090b4af81df6d45a1900'),
    'verify auto ninepoint_uniform.json': (0, 'cc29738eff15dbf72b15793a7005e25a949d3dfe1c8cf0e30564956dd570ebab'),
    'verify nd ninepoint_uniform.json': (0, 'cc29738eff15dbf72b15793a7005e25a949d3dfe1c8cf0e30564956dd570ebab'),
    'verify tridiagonal-j-n ninepoint_uniform.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 ninepoint_uniform.json': (0, '5888a8218b27f5e20731aa506286347eeecb4ef2157548154b0517597343b4e8'),
    'solve csv ninepoint_uniform.json': (0, 'd6f7d1896482a92af6aba9a02534ac0d77f5acd407d2f5edb0bfda1e4b08bf3a'),
    'solve json ninepoint_uniform.json': (0, '2a4e0338208cab57ebc3b54134955bd7b4268990aa50bdffe3a68a7bbe328fb6'),
    'expand 0 ninepoint_uniform.json': (0, '1e6e9dee8a978c3c86e0c93ef868e704fe4bcef61c54bf1502d15029c791b63e'),
    'expand 3 ninepoint_uniform.json': (0, '9acdd40368852f6ae35bee1cf6e27124a26b86ba9f80143006bd0728f1ae4469'),
    'expand 7 ninepoint_uniform.json': (0, '991b80f5127eb941dc7fb351d1b0ed557c75d5e65d8f6ef61a9839ee2935e0ac'),
    'verify auto one_row_shift.json': (0, 'fb7a3225c8ce19de9b5186bf2bd9ad7fc092e618f05c2cf2d88a13bbaf453288'),
    'verify nd one_row_shift.json': (0, 'fb7a3225c8ce19de9b5186bf2bd9ad7fc092e618f05c2cf2d88a13bbaf453288'),
    'verify tridiagonal-j-n one_row_shift.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 one_row_shift.json': (0, '8b498c27e25643ffd29b757e03d7e49148c850b6e76e44a7fa38a0bf2bef1f18'),
    'solve csv one_row_shift.json': (0, '21f0eb78fafc6823a1635dd94c4708809faf2034d1cbc40f4827d27e9393b02b'),
    'solve json one_row_shift.json': (0, '38cef88b93146a7c808d6e4f2d6a45ed19bb32b368e7f8fd36c3012256db4d57'),
    'expand 0 one_row_shift.json': (0, '3a21cb51b98e59a5498041353ed6d504820a229baf1934512f0740f944e8ed39'),
    'expand 3 one_row_shift.json': (0, '24640907aa7ed2884b45aa28a034e6885580665554c3102e79af77e8e015402d'),
    'expand 7 one_row_shift.json': (0, '4f8f2e1ad3d11f95e77eb68aeacaf8ff44dcd2f050dc27c306f8821ed30d838a'),
    'verify auto one_row_wide.json': (0, '267a46fc275f27735aab7b66aa118a79a91b88473c4f83bfcfd18f4736077f09'),
    'verify nd one_row_wide.json': (0, '267a46fc275f27735aab7b66aa118a79a91b88473c4f83bfcfd18f4736077f09'),
    'verify tridiagonal-j-n one_row_wide.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 one_row_wide.json': (0, '156d821513daa9e33d6c30ecea6cd43231e17fa40b7fa5e543370b1c20eda783'),
    'solve csv one_row_wide.json': (0, '7d86d28c66e1f8ae3f74855608474f35532c6240ce56c4435993ab0f164f5886'),
    'solve json one_row_wide.json': (0, '2e9c105a910778e700d63602aa6f0d0328cc01c227cfdc2315447b29738fa32f'),
    'expand 0 one_row_wide.json': (0, '4b80079939bae04dc8b876d91e626d8a57313ac3affe09f047d5da340e48746d'),
    'expand 3 one_row_wide.json': (0, '091d217333bc576577c234906d9cee2e8137000d791c7988a21d2748e1b0a149'),
    'expand 7 one_row_wide.json': (0, '341e795839a49587213a730e15ec08c38660a2e4695f3259a0a5a9467ecc5131'),
    'verify auto random_walk_symmetric.json': (0, 'c35d68e8720e20b38ca4ed368a73f209fef897e7c32e2521005c23319781aef6'),
    'verify nd random_walk_symmetric.json': (0, 'c35d68e8720e20b38ca4ed368a73f209fef897e7c32e2521005c23319781aef6'),
    'verify tridiagonal-j-n random_walk_symmetric.json': (0, 'c35d68e8720e20b38ca4ed368a73f209fef897e7c32e2521005c23319781aef6'),
    'verify tmax3 random_walk_symmetric.json': (0, '2be8cbb8f91e0f1509c685a46a639e948623047af9140c139a637f8ed43063a1'),
    'solve csv random_walk_symmetric.json': (0, 'b9f5a5b5bb6e50428d62308a35134bc267b5861671c9b557661af93482e9f403'),
    'solve json random_walk_symmetric.json': (0, '7920924ee72d13edbca097457fc36e2d878ac5ae6bad2dec008a73c3152cad0a'),
    'expand 0 random_walk_symmetric.json': (0, 'ea163d152569afb98e0433634d3949ab55fb27509a615f3b80e56e1767e61f94'),
    'expand 3 random_walk_symmetric.json': (0, '5944b1a1407b9d41a0d09e2fc5af22041badb249485a99d0cc49eff6ef238817'),
    'expand 7 random_walk_symmetric.json': (0, '4e1ba292ecd27a1667454e12ea5cda231d9c1334a68cb5cd596daa6d97558fad'),
    'verify auto tridiagonal_mixed.json': (0, '18e445eefec6d6c1728fdac81c9ff4e456911474c64d84a1bd3d5f88b2bc4a3f'),
    'verify nd tridiagonal_mixed.json': (0, '18e445eefec6d6c1728fdac81c9ff4e456911474c64d84a1bd3d5f88b2bc4a3f'),
    'verify tridiagonal-j-n tridiagonal_mixed.json': (1, '9b543502ac8a4cd77dff809a2a6fa0a452f63b056e378eeed09b92ab1e12115e'),
    'verify tmax3 tridiagonal_mixed.json': (0, 'f7174d62d0d9e445183f4b70a88b72b706b2fec60deda3dadeb930a56482e48d'),
    'solve csv tridiagonal_mixed.json': (0, '9f1dcb214eab9e08e02b2944fe2f902de53b6bc050d4a6fca18d7699d2868453'),
    'solve json tridiagonal_mixed.json': (0, '58a96c624e2334111fe699122037f865309832d5a3b632a9ee2edc6b26febd98'),
    'expand 0 tridiagonal_mixed.json': (0, '713e485587753c04041f400c350f776835970ef0a5f2efb8af565d78c83aed88'),
    'expand 3 tridiagonal_mixed.json': (0, 'f1e12956bd97965a20907b9a3f36bbda85360524e52ed0259821affa49885470'),
    'expand 7 tridiagonal_mixed.json': (0, 'a1e95b1d00268c9c213334ebc9b6ced6413f41c289afc32f85d125a6bf2ee5c5'),
    'verify auto two_row_fibonacci.json': (0, 'aa556df42048b344c39ee957374cd067ef87865b2cd3a25def884b2576c1454f'),
    'verify nd two_row_fibonacci.json': (0, 'aa556df42048b344c39ee957374cd067ef87865b2cd3a25def884b2576c1454f'),
    'verify tridiagonal-j-n two_row_fibonacci.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 two_row_fibonacci.json': (0, '993a0b0e3e7351861be21d0bfee9c7eab9810e6071d00161ec06b601863be3b2'),
    'solve csv two_row_fibonacci.json': (0, 'b5457fb1c7d5b648e8d15380f247b0527a446a7896b72530384332964574179d'),
    'solve json two_row_fibonacci.json': (0, 'bfc9494dee24d56466010678dbe108590182d98bfc01a952841a028653b7faae'),
    'expand 0 two_row_fibonacci.json': (0, '6b2f4ebc6ac2aee961def7f0fb3361c714ccd8ad548e758b9ac09d3bd75291de'),
    'expand 3 two_row_fibonacci.json': (0, '99f10cbae6137e5b74336de01d21736114b6514a9e256ed5ca1457f1ac2e250b'),
    'expand 7 two_row_fibonacci.json': (0, '190a822b144462cd6c2a1777f0ba8ee8d42f86c1656416229009fb0225fe2e13'),
    'verify auto two_row_mixed.json': (0, '9f671c9b86d2a7a633a72014264ea4fbcec71764e2b741d6bc4bad1d8c6b1321'),
    'verify nd two_row_mixed.json': (0, '9f671c9b86d2a7a633a72014264ea4fbcec71764e2b741d6bc4bad1d8c6b1321'),
    'verify tridiagonal-j-n two_row_mixed.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 two_row_mixed.json': (0, '484e83e6dd00b8e3666cc84373f96e930df78dc1ccfac8365c30c170efd17baa'),
    'solve csv two_row_mixed.json': (0, 'd89ef3e3989554c15a9ef591cabedbfebcc1458a241427400cd6af297b2ae9a6'),
    'solve json two_row_mixed.json': (0, 'ac20c7154cab9c1cd09df058398de1a711e981b43a12e5d2b3c3430df6780846'),
    'expand 0 two_row_mixed.json': (0, '0b3c995fb37a209dfb8aa43c8a626afff53847a927ae190b15a90c0d9bf5f458'),
    'expand 3 two_row_mixed.json': (0, '5a8e493fd080aea67905b395a05c201e8d5343c2a19ad4ee00e6ed60b97bea91'),
    'expand 7 two_row_mixed.json': (0, '1309f3a692d6ff7f37021250bf382480b75696cef772ef40321af91eda57f55e'),
}


def test_cli_output_matches_recorded_digests():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, changed


if __name__ == "__main__":
    for name, (status, digest) in digests().items():
        print(f"    {name!r}: ({status}, {digest!r}),")
    sys.exit(0)
