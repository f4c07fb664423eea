"""Golden reports: the sha256 of stdout of every corpus command of
acceptance criterion 10, pinned, so that a change which means to keep the
reports byte-identical is checked against the bytes themselves.

Run as a script, the module writes each command and its stdout in order;
CI runs it under several `PYTHONHASHSEED` values and compares the output
byte for byte:

    PYTHONPATH=src python tests/test_golden_reports.py > reports.txt
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

from plhtpy import scx
from plhtpy.cli import main

PER_CORPUS = ["validate", "subdivide", "core", "homology", "pi0", "pi1",
              "hurewicz", "pi2", "euler"]
PAIRS = [("disk", "boundary"), ("cube1", "ends"), ("cube2", "boundary")]


def commands() -> list[tuple[str, ...]]:
    runs = [("corpus", "list")]
    for name in scx.CORPUS_NAMES:
        runs += [(cmd, f"corpus:{name}") for cmd in PER_CORPUS]
        v0 = min(scx.load_corpus(name)[0].vertex_ids())
        runs.append(("star", f"corpus:{name}", "--simplex", v0))
        runs.append(("corpus", "emit", name))
    for name, sub in PAIRS:
        runs += [(cmd, f"corpus:{name}", "--sub", sub)
                 for cmd in ("rel-homology", "les", "extend-normal")]
    return runs


def stdout_of(args) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(list(args))
    return buf.getvalue()


# sha256 of the stdout of each command, keyed by its arguments
GOLDEN = {
    "corpus list":
        "60a5732a5bd3c817a38e383a42af1bfb20e71de967175b27e2c7619171086be2",
    "validate corpus:cube1":
        "71650d7c3f48edd4cfc82ed89071334354c078787c5a8b8596314b5c252626c9",
    "subdivide corpus:cube1":
        "1716a08af3976702d2ca53cef42286bdcea9ca88e4f339b388867f80bdda8843",
    "core corpus:cube1":
        "f412b0bfc1068fb5c27b6df39ba7ddf38a2fe2f0ef7528d301a8a7219ba6cee0",
    "homology corpus:cube1":
        "26c9c04c3eb6c6af6051999823dec867e4002ff831a2d5786da03dc54cff3d9a",
    "pi0 corpus:cube1":
        "e7dea390ea41fa5628e18dddf8885e6c27b34f1bcd20e90a32d0653e41dea15a",
    "pi1 corpus:cube1":
        "2a7b68ae9277ef0514c031cf6248052110739e227be7369df2d40abfe27a7e03",
    "hurewicz corpus:cube1":
        "7e748c8d859cead3043bea3581dba0071e8ba000a109338abbf603882d5c1308",
    "pi2 corpus:cube1":
        "2678dff2d87b1c4fe92c15bbeb4f30b777de49d1c6f76e142e2c131ce8ced449",
    "euler corpus:cube1":
        "7606da5e998ea7348b5235361fff6a03582cba96a2027a16c906e42f8eb9e37f",
    "star corpus:cube1 --simplex u0":
        "99e271069c9ab84339df214618937742c6f87f50918345189c2edf771e49fcc7",
    "corpus emit cube1":
        "91f1a924e85b8f509d0aa754314f4331d35c58663878022e179df601bfbf4fee",
    "validate corpus:cube2":
        "b4e76e1aaa6a3c5c82dc6f9630f2301b3fb559e5178fa459a033592d9f3d59da",
    "subdivide corpus:cube2":
        "d32ee9931c02b20c532aba5d6dc49bb81be20f641e4a6544275e196160afc849",
    "core corpus:cube2":
        "5b972ee7d1a780a52a0bd598e12073095a17206ef3b349fccc474f0fe28afb0f",
    "homology corpus:cube2":
        "71664afe49539ed8b3cad5eb03c49f228e9c46627097f00a334b55372e6c8779",
    "pi0 corpus:cube2":
        "b1ae70adc9d9a16d219032a7a6e00cb796339041d0eeec8fd237457d97e2c36b",
    "pi1 corpus:cube2":
        "6652433d1d85af06a852028b808f070279ff9582e71f416d717181ff0fc488ef",
    "hurewicz corpus:cube2":
        "0e589210ea7c76d8a0c9d05ccbffae233cc2c99e935ebdff028e4631fb50efa0",
    "pi2 corpus:cube2":
        "f4337649e61d1f7b86acace6a50a2ca11b357863241de16ce250df7216e1adda",
    "euler corpus:cube2":
        "7606da5e998ea7348b5235361fff6a03582cba96a2027a16c906e42f8eb9e37f",
    "star corpus:cube2 --simplex q00":
        "418a780e3c4c7de0a4d29598a870fec3fbd0dc5d8f99b63583627ca640f753a3",
    "corpus emit cube2":
        "916fc5d9553a5e6402b67310d25a5b3cbe9c3d3adbb240d6999b09bf18e419bc",
    "validate corpus:disk":
        "4af97102b59d3a9077c7e53a2a024aeca1f7b7971629f9740b9350b91b23c5de",
    "subdivide corpus:disk":
        "e701b3579c66cecb14d735d9f7fad2b7751f351a326c14bb401190267c3d08fc",
    "core corpus:disk":
        "23e5bdb22a36be43bb8cf1b22df367049437fdb86a3045d898fe79f19f5608d1",
    "homology corpus:disk":
        "71664afe49539ed8b3cad5eb03c49f228e9c46627097f00a334b55372e6c8779",
    "pi0 corpus:disk":
        "5bddf38cd28262a6f3d171ba2619fcb6eac64ef4cc4bdcc459033c4809b030d1",
    "pi1 corpus:disk":
        "55ef6ba840a4283c78bd5518b7a4834653933fe8cfab44dffef348a5a9440934",
    "hurewicz corpus:disk":
        "69683586b1c0c8838679d570fb466e1ead86bbb48b49da55de70989e0d6711cd",
    "pi2 corpus:disk":
        "e2982711993e41cc9e3d10371e829be39225d081e9b05669b7ac36bc0695adde",
    "euler corpus:disk":
        "7606da5e998ea7348b5235361fff6a03582cba96a2027a16c906e42f8eb9e37f",
    "star corpus:disk --simplex a":
        "d708b61ff652992604be7059e6c9543db8edd82832e74183b1670cc606a9e205",
    "corpus emit disk":
        "3a4d264a727c2bc95cae34e76c69383faf5a704a116bf3ac3d0ec5cc3fa40e33",
    "validate corpus:rp6":
        "a526a06b574051f61433500830fa411e0f7fc5b5ccea7718787e1845603d58d8",
    "subdivide corpus:rp6":
        "c201d5defc2d5604cb1193ae4baf6d61f71de4a9fe803ef55b645253179a7e0a",
    "core corpus:rp6":
        "afac9ff54257e070019958a1c9f28590551aa1c5f3812690111ca3828ddc5323",
    "homology corpus:rp6":
        "af169ea2714a3165a6502ad7c46894e5adeb76b7f5eabd15783a3a4a3ce62bd5",
    "pi0 corpus:rp6":
        "367091b4a86f21ce3610aae19a84ec831976123a20a699942723957bb308488c",
    "pi1 corpus:rp6":
        "6cb9c0e6b1ea3fe9939ead86307fc8641dcd862dc729068c21e0f2fa1e8a9625",
    "hurewicz corpus:rp6":
        "08d8702dcb6d7841ab0ae1dbd218b414f7d5cc6380ba01ddd714fbb45c6c9f7a",
    "pi2 corpus:rp6":
        "93e29322f2436e113b37e6a3dbc3c7d8620b36e92ac8c513dd23239a5e21265b",
    "euler corpus:rp6":
        "7606da5e998ea7348b5235361fff6a03582cba96a2027a16c906e42f8eb9e37f",
    "star corpus:rp6 --simplex p1":
        "b81f4bb586d460835241d4a4eb265c83597fb381e1dabf79e5198a81a2567f97",
    "corpus emit rp6":
        "66025fc9a93262d044149aa1f8b30aef4772ffc41b5bf3d595833aa21de717b9",
    "validate corpus:s2":
        "4365f1705803d48a1f99f56e392e5963c3bf86f80f79892132e7215e5e4a4248",
    "subdivide corpus:s2":
        "758ff01ec678dcfd1a76254857942d68b5ffa6e5a43f5fdfd5edfea0deb57fec",
    "core corpus:s2":
        "cd06c41b18c7fcf429fede9417bcc8f5d7af93e807d7abb50714f741fc3f5702",
    "homology corpus:s2":
        "e7565d55c145e626cd11c3a41b0bc5556ce517ac3c889ee730936e35731a4cf4",
    "pi0 corpus:s2":
        "264e6439e26dfdd5980de2790503d1164b24d686b593588e89bee99114840d5f",
    "pi1 corpus:s2":
        "842e08d2026964abe6f3e1df4baa53aa3d4fb765cc5ad52ee9a8473e23864a3b",
    "hurewicz corpus:s2":
        "d321dfedb04203fd04aa1f9dc4fc8f2af0cc87b715c5c85b5931e57ffe1dbdb4",
    "pi2 corpus:s2":
        "6cc311bce25e1c6a538f164699607956896a42a86c606119f96084423395a668",
    "euler corpus:s2":
        "b8ca7f35726247b1b8db466efe2e594a385bdefd0a15f289f1b6e3cab86b2377",
    "star corpus:s2 --simplex s1":
        "60afc8b40c66bf8adf7a2af0a61928d572b331949c165067ad20a25035ccd57e",
    "corpus emit s2":
        "35b20456698ab1fd6788cb2dc3fc4090048fc70ef577a2940869fe7b0495df37",
    "validate corpus:torus7":
        "bd039c942536039d80960c816c0d784480fa282edd29b8e11316928962e1fe58",
    "subdivide corpus:torus7":
        "0ab87939eedb3ef79465d2a57af0eb008e57de776ebcc9c90a0ae8f0d2b70ff0",
    "core corpus:torus7":
        "e491b69884b3eff6fdace27b86a2a6d0c976337550290b87c4d3eac44b59f0a8",
    "homology corpus:torus7":
        "eca45ad6c2e6fbed243ba3b3f0699c1fa21c3e7191dcc690e05bb6ce586d6364",
    "pi0 corpus:torus7":
        "2f6d472d06c1afdd21f3b730e91634f25cea44463b27eac02dca666d07ab5e6d",
    "pi1 corpus:torus7":
        "2a9ffae381cc80ea0dc631d46455523b4a8531091670e318ec4871eed67111f3",
    "hurewicz corpus:torus7":
        "7469dffdb8bf09cc261c12e15a078350e982e6a0b5725f5e8b1f1afdf3e82f38",
    "pi2 corpus:torus7":
        "2a4ddd58de6febe1a7378d9cf106ed0476f5c0b8a7b06931f05aa03808dd9454",
    "euler corpus:torus7":
        "784028b6c495b786d33b8dc25b98aa5d63ab4093db615b676e7df1e46e1b50de",
    "star corpus:torus7 --simplex t1":
        "c3e5610ef94ca34c3fc4c6b24f0c54e4554ff0affd6fc1ea5713ca3466d4e0f0",
    "corpus emit torus7":
        "c9914dccf669a49451c1799e9b7e0e6eb60798a8e98544ae2237337d87798306",
    "validate corpus:tri3":
        "a893b992164afd0f04d462ce47df46bb88aa679c8b2418de0569b77a0cd22dc6",
    "subdivide corpus:tri3":
        "0fc4c739d74b292648c2c61003f3a179184028bb22b8d6ed6884e2de2dd3a5f8",
    "core corpus:tri3":
        "78f11590c1690978478065059a23b2c5eb8dcfd855a302e519da1a72db547ed8",
    "homology corpus:tri3":
        "1ff895175bf4d921c6a9836b2ce96d3cf065f0d5472727d9cf7e6e5c5c014db7",
    "pi0 corpus:tri3":
        "5bddf38cd28262a6f3d171ba2619fcb6eac64ef4cc4bdcc459033c4809b030d1",
    "pi1 corpus:tri3":
        "d9fee61324b1fd8859a752d02fc614e28f37161f9b63f5ff53057a0a579617fd",
    "hurewicz corpus:tri3":
        "e879d92231ec3c371dd6fcca95a22beb43ac6b3d387bbafa81423b9a6f8a9099",
    "pi2 corpus:tri3":
        "677eebc19bef4cf5efdd5b84a46592a98287f4cd58e395dd4ac634d6c6fd5293",
    "euler corpus:tri3":
        "784028b6c495b786d33b8dc25b98aa5d63ab4093db615b676e7df1e46e1b50de",
    "star corpus:tri3 --simplex a":
        "5d05f6a06df28a2a79daedb40bd15d1fd1ccfe7866f936630ae335d1a5f16a26",
    "corpus emit tri3":
        "044bdea06099cd6ea23530f3fae32e57a32d1477c1a84c79c065645a5957573d",
    "validate corpus:wedge2":
        "2bfc8c3441610b3d75506da1ca2416c6876a53fdf21d8b5902eadacd1b594ecd",
    "subdivide corpus:wedge2":
        "12730facc36165aa345d0409fcacfcb3b99bfceab0ed2e2c98511f43b84ee22d",
    "core corpus:wedge2":
        "2c1b446ce5b22da3b819950a60d0562eef5dbd8bfd7c3201e61ff54f008fea70",
    "homology corpus:wedge2":
        "a8ed63f4458ef88b01b5f57110740ba848bc490de4af126cc476e35fb6d76795",
    "pi0 corpus:wedge2":
        "5ba4edaa016358c6e94cc88cc55c0b820fd02587ec24206d047222896db6489f",
    "pi1 corpus:wedge2":
        "202aa8489be640ef0a08336f084f9ce08cb853136262326b8087219c382d7d9f",
    "hurewicz corpus:wedge2":
        "19c4e33b0cb5cde9d8633abf2526f64d92d8a75fe45d4cd49024a915cf294819",
    "pi2 corpus:wedge2":
        "749e58cbb51684a43416f2f51b7692609a1b578fe81d30b8bcfae6f93073356a",
    "euler corpus:wedge2":
        "22bf27a3fb8e7cdf31b28008d44c87951fafd86f5ef9c9294b402bfd0aacd721",
    "star corpus:wedge2 --simplex a":
        "cbac1ed4fb0601b91927baf11d9426183a3d21a43f153639a712aed8e2532943",
    "corpus emit wedge2":
        "e752892a4ff1de57422899ffe58ebcf68e70301545089852d72e6f8418b784fb",
    "rel-homology corpus:disk --sub boundary":
        "b07d3406b141f09141e1512ceb2628b0a732b374282bec01e03b89bd866a6663",
    "les corpus:disk --sub boundary":
        "4126263ab79b76f688835c92841631022e6a5ed203bfca494692160651c73dac",
    "extend-normal corpus:disk --sub boundary":
        "ba1bf4e82889906b06c6b51f3dec3c4a50c1a1d873f2264a86b0151671114e12",
    "rel-homology corpus:cube1 --sub ends":
        "a9badc4d25cb81efe76938a9842bd1183b6de1e524976430395da0cc00d10508",
    "les corpus:cube1 --sub ends":
        "fc5bd06f1c169887bdc458f74f3afb63f6a794a15a222baee8d00db3a35f6651",
    "extend-normal corpus:cube1 --sub ends":
        "d90ed8d1783e8d3379781064807dd4bc1ffb40331563dcc83c1fbe483a8eaa1e",
    "rel-homology corpus:cube2 --sub boundary":
        "b07d3406b141f09141e1512ceb2628b0a732b374282bec01e03b89bd866a6663",
    "les corpus:cube2 --sub boundary":
        "4126263ab79b76f688835c92841631022e6a5ed203bfca494692160651c73dac",
    "extend-normal corpus:cube2 --sub boundary":
        "e0a60548e5218a7c1f7ff9ffaa057c1078a9d046182141552d106ab0cc819d05",
}


def test_reports_match_their_pinned_digests():
    got = {" ".join(args): hashlib.sha256(stdout_of(args).encode()).hexdigest()
           for args in commands()}
    assert got == GOLDEN


if __name__ == "__main__":
    for args in commands():
        sys.stdout.write("$ plhtpy " + " ".join(args) + "\n" + stdout_of(args))
