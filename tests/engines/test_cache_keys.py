"""Golden-value pinning of :meth:`SweepPoint.cache_key`.

The cache key's engine component is the engine name, and every historical
on-disk sweep/serve cache entry must remain byte-for-byte addressable.
This suite pins the keys of a fixed (experiment, config, seed, engine,
params) matrix to SHA-256 digests captured on v1.5.0, both per point and
through the batched :func:`repro.api.sweep.cache_keys_for_grid`; a
mismatch means somebody rotated every user's cache by accident.

The package version is part of the key payload *on purpose* (a release
whose simulator produces different numbers must invalidate caches), so the
golden rows monkeypatch ``repro.__version__`` back to the capture version
-- the table stays valid across future releases while still catching
accidental payload/serialisation changes.
"""

import pytest

import repro
from repro.api.sweep import SweepPoint

#: Captured on v1.5.0:
#: ((experiment, config, seed, engine, params_json), sha256 hex digest).
GOLDEN_VERSION = "1.5.0"
GOLDEN_KEYS = [
    (('fig7', 'paper-28nm', 0, 'vectorized',
      '{"models": ["alexnet"]}'),
     '536a076dc614d0fbfac45371e94b3620cbd3bab192cf8cc9637f31a395470f33'),
    (('fig7', 'paper-28nm', 0, 'scalar',
      '{"models": ["alexnet"]}'),
     'b036834abfe1625097dc2148ef3bff26db2cb2ca24c671526b4a2c8192326e6f'),
    (('fig7', 'paper-28nm', 7, 'vectorized',
      '{"models": ["alexnet"]}'),
     '75c7170ff59f0f35c2d4fe14459b6d21d4f23173c781ec0b67c90215acd3a208'),
    (('fig7', 'paper-28nm', 7, 'scalar',
      '{"models": ["alexnet"]}'),
     '6e5e00f8d46da0486af5da6426c7dba48d29b815cf68468e86ced79a776e1bb8'),
    (('fig7', 'dense-baseline', 0, 'vectorized',
      '{"models": ["alexnet"]}'),
     '06068ece60e16e819d63eb747dba2c816edb313229d29b7c04471afac137ab86'),
    (('fig7', 'dense-baseline', 0, 'scalar',
      '{"models": ["alexnet"]}'),
     'c7d7798af3451220a4e208296d6a845ae3b662254194b63a5119981e0b4a8860'),
    (('fig7', 'dense-baseline', 7, 'vectorized',
      '{"models": ["alexnet"]}'),
     '0976e3ec51d55c5eeeef0d3a9802c95a8650af25d86d6cb315fc45733b4b6eec'),
    (('fig7', 'dense-baseline', 7, 'scalar',
      '{"models": ["alexnet"]}'),
     '22e093408b1ced3ebef49e3d3859c2ecb5d8818353f8099f372f651ee526e044'),
    (('fig7', 'paper-28nm', 0, 'vectorized',
      '{"models": ["resnet18"]}'),
     'e8be3cb1a53347ab5070388ad46c89276841d37290de829fee661b36ac553bcd'),
    (('fig7', 'paper-28nm', 0, 'scalar',
      '{"models": ["resnet18"]}'),
     '220e15dfd7b74b082e36add34296116c39b92e1156efc0a9eb65bbfc29b91730'),
    (('fig7', 'paper-28nm', 7, 'vectorized',
      '{"models": ["resnet18"]}'),
     'd5aae06b23e370081e95b76c379b3fb54506f722d3c4564a4f00c807db47ba93'),
    (('fig7', 'paper-28nm', 7, 'scalar',
      '{"models": ["resnet18"]}'),
     '9f3bf6bda1acae86ecfc0002fe09d434eff720d5a2d7cf9cf55a0eb088d8d7d5'),
    (('fig7', 'dense-baseline', 0, 'vectorized',
      '{"models": ["resnet18"]}'),
     '38cf2d69d0255769c50b4af639cb5bdf5b3c6dcd04e65e931c64da3ad0fd7bb3'),
    (('fig7', 'dense-baseline', 0, 'scalar',
      '{"models": ["resnet18"]}'),
     'fe3c05027c1c186ca020d00292e507beadef06692f100e5c2dccd095ffa7be65'),
    (('fig7', 'dense-baseline', 7, 'vectorized',
      '{"models": ["resnet18"]}'),
     '27cb8e1036cd527f50730716445fb5802061e615f485ba5e69beea808bbbcebb'),
    (('fig7', 'dense-baseline', 7, 'scalar',
      '{"models": ["resnet18"]}'),
     '0d7b5d469e13c93e7a8d1f7af5c220e5b569f5c9a9b88a517de2a0df41cf915c'),
    (('fig2a', 'paper-28nm', 0, 'vectorized',
      '{"models": ["vgg19"]}'),
     '61c716acb9f13c33cef2a3afd0d680a448c15d50ca3f379649f2ab2d48fb6bc8'),
    (('fig2a', 'paper-28nm', 0, 'scalar',
      '{"models": ["vgg19"]}'),
     'a58518bdaf2f6b75b4022f7097c8970d7cb9718d2f90291e5aa70658869560d1'),
    (('fig2a', 'paper-28nm', 7, 'vectorized',
      '{"models": ["vgg19"]}'),
     'ab691890791833a19377739b843362b875125e1610def24d821f03b4ae68cf3d'),
    (('fig2a', 'paper-28nm', 7, 'scalar',
      '{"models": ["vgg19"]}'),
     '8e52758f234edcb7cc463a5610d4226a9550291164e9b50bb2c7bd9e17e79828'),
    (('fig2a', 'dense-baseline', 0, 'vectorized',
      '{"models": ["vgg19"]}'),
     'e518d39f5cccf9d0dac3af448660f08ea6291fe4e6b54762c213e6b6cf6f8197'),
    (('fig2a', 'dense-baseline', 0, 'scalar',
      '{"models": ["vgg19"]}'),
     '292a1fc0f3764df180530ef16d31d6dbbda40d3702d4fbb85e52afcba3bdea62'),
    (('fig2a', 'dense-baseline', 7, 'vectorized',
      '{"models": ["vgg19"]}'),
     '389874a4c5c5dea5cecbfdb36aad4975c4b31cc1bfc2d5686225bea05c6a685d'),
    (('fig2a', 'dense-baseline', 7, 'scalar',
      '{"models": ["vgg19"]}'),
     '262d28bea151e8ae58cb05b90a7958ac08eceb7140d59eae134cca3411c8c773'),
    (('fig2b', 'paper-28nm', 0, 'vectorized',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     '594779d259f28743cbe83d21bb1c9b2bfa7121f64c5089f99d95e04fc40e0e2a'),
    (('fig2b', 'paper-28nm', 0, 'scalar',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     '5a6b1347a6b665daf169cec1d57c92c05e5ce386fcb1982180c75ffa4788fe6d'),
    (('fig2b', 'paper-28nm', 7, 'vectorized',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     'af555be871297555434855f9c44cabf21f4aa2b702ef4cf301228fd28e5e50d4'),
    (('fig2b', 'paper-28nm', 7, 'scalar',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     '4791aff9af244f92942a172b17864ca6c6116e0ded9b322f923648e168b063d6'),
    (('fig2b', 'dense-baseline', 0, 'vectorized',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     '5eabe787586b4d0cdc1cb3f59aa73d39322ac61c242990152b244963d8ab0f7e'),
    (('fig2b', 'dense-baseline', 0, 'scalar',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     'f2877571ac42ad903375f7c248b4e2d5862b6dbe6e48d0e0ae79bf9981097b50'),
    (('fig2b', 'dense-baseline', 7, 'vectorized',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     '334dff66061ac0cadea6813ba08106fd132b0b6cb615cb573019bc9ff4a8ca36'),
    (('fig2b', 'dense-baseline', 7, 'scalar',
      '{"group_sizes": [1, 8, 16], "models": ["mobilenetv2"]}'),
     'dca2aba9d1a95a4fac033636499334392369b70159513271dd89fef6b698bb97'),
    (('table3', 'paper-28nm', 0, 'vectorized',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '21a03c1d2cf4692a9fb27101c1e304a4439301cd7cf08e30362aef73f41166ee'),
    (('table3', 'paper-28nm', 0, 'scalar',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '914788d244db16ca3828bff3360f65e2c927c5cf64aef49acd1044194a2eff99'),
    (('table3', 'paper-28nm', 7, 'vectorized',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '153c999808a78bd253987c9874f3420b9c0ea0507cc9af07f6cdacdd22a7ca5f'),
    (('table3', 'paper-28nm', 7, 'scalar',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '54439713da2c93fd90f3f5a838cc54a35bc53e0213d46ce07fd1b5d33d7639f7'),
    (('table3', 'dense-baseline', 0, 'vectorized',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     'fbfccce28e24e6a79eaf5065e96a1c18213008d3d8c89b57eede3c2125025cbc'),
    (('table3', 'dense-baseline', 0, 'scalar',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '50ce5c1979a2b8621289dc544f411ffb285b67e359bdc37d21f08769ce7cd6f4'),
    (('table3', 'dense-baseline', 7, 'vectorized',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '604565efaefc19495c7b3bf613d851428a8358d5ffc7cd3ac41eeb418a8db247'),
    (('table3', 'dense-baseline', 7, 'scalar',
      '{"models": ["alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0"]}'),
     '585d65b90c88b8b297e014bd816897d18a4a75a00e376df399a287745a1188e6'),
    (('table4', 'paper-28nm', 0, 'vectorized',
      '{}'),
     'bb0d936d0e2108d4433dc3501ce107357396f9d2c048a84339da2e55d69870dc'),
    (('table4', 'paper-28nm', 0, 'scalar',
      '{}'),
     'c325697f66e92f73e010316df7a79801b0a0f9666d7df253730cd662f51924a0'),
    (('table4', 'paper-28nm', 7, 'vectorized',
      '{}'),
     '4dc8b7aee7082738e22b9e55fd02991edb72ee7edfeee31e5443089887c4364a'),
    (('table4', 'paper-28nm', 7, 'scalar',
      '{}'),
     'b2c777a591cead090ef0c330328bc40415e43fb606f5717ffc0dd738e3fc453d'),
    (('table4', 'dense-baseline', 0, 'vectorized',
      '{}'),
     'e71dffc75ab8ce5d0cec5722e57bad253f4487f437d973a0962c36eab10c2fdd'),
    (('table4', 'dense-baseline', 0, 'scalar',
      '{}'),
     '35a0fbabf41fb4db5821e80f6fa8fb85fd2a7b9c1a869d210814274bb0da65ca'),
    (('table4', 'dense-baseline', 7, 'vectorized',
      '{}'),
     'b60b7bb7f87ecc26f0feca102c63cf232b17c5768ebecc25b3e0817b8ebef2db'),
    (('table4', 'dense-baseline', 7, 'scalar',
      '{}'),
     '74e582ca60241b65683eda1917710898440822ab7ea4a4f1bfbd11796a515a00'),
    (('program', 'paper-28nm', 0, 'vectorized',
      '{"models": ["vit_tiny"]}'),
     'b5f1af63a271ac7a5bce6345f2a19bf37e1cf44f55b03510ebfcc157aa06d79a'),
    (('program', 'paper-28nm', 0, 'scalar',
      '{"models": ["vit_tiny"]}'),
     '6565cea1301590357cd0be6270fde34d1d6fd5bc9e2e339e99de659918837369'),
    (('program', 'paper-28nm', 7, 'vectorized',
      '{"models": ["vit_tiny"]}'),
     '5564b7032d11d5bf7f11d25ea916773d2173e724ec7f8f682b1eef42d52c809e'),
    (('program', 'paper-28nm', 7, 'scalar',
      '{"models": ["vit_tiny"]}'),
     '8980e4924f420e1a40d1751a3160f35b2353d554d7ec1eda43e8201f6994bf06'),
    (('program', 'dense-baseline', 0, 'vectorized',
      '{"models": ["vit_tiny"]}'),
     '65485f8741723a2d0750fcc1784a660a4532c9c25be0ec2804c97acd3f063aeb'),
    (('program', 'dense-baseline', 0, 'scalar',
      '{"models": ["vit_tiny"]}'),
     '54bb3228e975eeb2a0ebc175a69bcf73a57e4939b0c01c4cc5009e9bb15119b9'),
    (('program', 'dense-baseline', 7, 'vectorized',
      '{"models": ["vit_tiny"]}'),
     'a4dd4ff798b67865445891414c84ea1a1e889560960ad00c79ac583372c64177'),
    (('program', 'dense-baseline', 7, 'scalar',
      '{"models": ["vit_tiny"]}'),
     'b467a11f859cd9b3266488121535b0b953a64a925fb2995e493d01bd20cb2a6e'),
    (('graph', 'paper-28nm', 0, 'vectorized',
      '{"models": ["transformer_tiny"]}'),
     '0afed18f4592b69b410b803df42b3090a4120185c59e7d7ae225162667246e4e'),
    (('graph', 'paper-28nm', 0, 'scalar',
      '{"models": ["transformer_tiny"]}'),
     '15eebd50433a60a3e1aac0f7564d8117376e038647be91374b6e07784d80713e'),
    (('graph', 'paper-28nm', 7, 'vectorized',
      '{"models": ["transformer_tiny"]}'),
     '50cf6a311ba7547f2fdd99363777eab6413bcaba63579914e77c8009e6ba592c'),
    (('graph', 'paper-28nm', 7, 'scalar',
      '{"models": ["transformer_tiny"]}'),
     '110426985dc8d43933ce1145bb87de9df5a13a92c56dd1d57b35c830a2a1d0f7'),
    (('graph', 'dense-baseline', 0, 'vectorized',
      '{"models": ["transformer_tiny"]}'),
     '0f32bb66384136c9cd767a68d6523818b841b30e830c75fcbb5e82826489f0dc'),
    (('graph', 'dense-baseline', 0, 'scalar',
      '{"models": ["transformer_tiny"]}'),
     '3536d51b35673b3dfbcdebb2770c7464d6ad62c488639c0cd8fdc179816c6fe1'),
    (('graph', 'dense-baseline', 7, 'vectorized',
      '{"models": ["transformer_tiny"]}'),
     'f0fead7eee75c2cab914cc5b5f6ea03d13a75552ba9897d71b1f7b83af137780'),
    (('graph', 'dense-baseline', 7, 'scalar',
      '{"models": ["transformer_tiny"]}'),
     '1703bbc2eb3a99f94deace08d11d5fb91dd105e6a0995b959c35ad89c7e2b5c3'),
]


@pytest.fixture()
def golden_version(monkeypatch):
    """Pin the package version to the golden capture release."""
    monkeypatch.setattr(repro, "__version__", GOLDEN_VERSION)


class TestGoldenCacheKeys:
    def test_matrix_is_nontrivial(self):
        assert len(GOLDEN_KEYS) == 64
        engines = {key[3] for key, _ in GOLDEN_KEYS}
        assert engines == {"scalar", "vectorized"}
        experiments = {key[0] for key, _ in GOLDEN_KEYS}
        assert len(experiments) >= 7

    @pytest.mark.parametrize(
        "case, expected",
        GOLDEN_KEYS,
        ids=["{}-{}-s{}-{}".format(*key[:4]) for key, _ in GOLDEN_KEYS],
    )
    def test_cache_key_is_byte_stable(self, golden_version, case, expected):
        experiment, config, seed, engine, params_json = case
        import json

        point = SweepPoint(
            experiment=experiment,
            config=config,
            seed=seed,
            engine=engine,
            params=json.loads(params_json),
        )
        assert point.cache_key() == expected

    def test_batched_grid_keys_match_goldens(self, golden_version):
        """The spliced batch canonicaliser reproduces every golden byte.

        :func:`repro.api.sweep.cache_keys_for_grid` assembles the canonical
        payload by string splicing (memoizing the per-config digest); this
        must be indistinguishable from the per-point
        ``json.dumps(payload, sort_keys=True)`` the goldens were captured
        from.
        """
        import json

        from repro.api.sweep import cache_keys_for_grid

        points = [
            SweepPoint(
                experiment=experiment,
                config=config,
                seed=seed,
                engine=engine,
                params=json.loads(params_json),
            )
            for (experiment, config, seed, engine, params_json), _ in GOLDEN_KEYS
        ]
        batched = cache_keys_for_grid(points)
        assert list(batched) == [expected for _, expected in GOLDEN_KEYS]
        # The batch memoized each key on its point: cache_key() is now a
        # lookup and still returns the same bytes.
        assert [p.cache_key() for p in points] == list(batched)

    def test_cache_key_is_memoized_on_the_point(self, golden_version):
        point = SweepPoint("fig7", params={"models": ["alexnet"]})
        assert "_cache_key" not in point.__dict__
        first = point.cache_key()
        assert point.__dict__["_cache_key"] == first
        assert point.cache_key() is first
