"""Golden digests of generated drawings.

Generators resample until a candidate passes ``validate_simple`` and its
class check, so a change in any predicate's answer would silently change
the drawings every other test runs on.  Each cell below pins the SHA-256
of the drawing's JSON (``fileio.dumps(drawing_to_dict(d))``) and of
``repr(d.crossing_pairs())`` for one (class, n, seed) the acceptance suite
uses; the digests were recorded with the ``Fraction`` predicates, before
validation ran on integer images.  ``monotone_perturbed`` n = 10 seed 406
resamples 240 times and n = 8 seed 404 nine times, so they exercise many
rejected candidates.
"""

import hashlib

import pytest

from treespan import fileio
from treespan.generators import GenSpec, generate

# ((class, n, seed[, a, b]), drawing digest, crossing-pairs digest)
GOLDEN = [
    (('convex', 4, 2),
     "3104c8b663483bd45daacabbb5de7c59930fe7b2d5176fc6b8967935ab12baae",
     "a097bff36a7ff4f110e81c72512a3a893e010f25651f4a0512afef023cfce613"),
    (('convex', 5, 2),
     "0f535462d3416fd412e7939facb66cd79cd32a0533261186fb98e69e6a8f288a",
     "1e0487213618e0deee6d240b3a1f8d8ba1422c988454949cd3e80f3f8e358d1c"),
    (('convex', 6, 2),
     "fe8c9f5a6a4ab95e6a7c2aa9e88f68a651fc5edb24942e9d7030953929da423f",
     "8796a575d3e4b6f32d4d865b03e925fa8b39d1b5248b8ee2b2231c1727dc99fc"),
    (('convex', 7, 2),
     "5876398b2665147d96c8b8e8a0d53c55c6a79a261426f38898ea729f29c74847",
     "b295ff7d908e6f2a195d5fa9799d979584b12eaa1546d8d2ed30ebaee1f64481"),
    (('convex', 8, 2),
     "2667a409299dfeffbad2399786612cad5825e0a669697cc99b67f507c7a8ebc0",
     "5bee65be745a40352a4f10fcd0dd06adb38bb2c7fe57b56dfb82068a97d9893f"),
    (('random_points', 4, 0),
     "25db83579dc7c94ee4a7f84729a16033d8e9ab686ac8d75d618454a45770bc1b",
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (('random_points', 5, 1),
     "72b98031a32ae526705c7a6cf88337def2009b64a500b7812533fff9d397343e",
     "7a8c75bc47c989fd739278173e9531196000f9f4771b251cea008560c647b387"),
    (('random_points', 6, 2),
     "09cb83b6162d88f8d3c47ed3dd0e6ec4c02ee11b6f1d3247d8082aa441edf7b0",
     "475ce23e5aabe66abbf3b9736c8e36f472803425cb334f9f3fc8f769eb6e47de"),
    (('random_points', 7, 3),
     "002c0a7e7f5e5dd999d55281685d9c7c990c695bcf2a7ecafafdee35351c8966",
     "a5426b629acea04a3bbf054f216793e7a30ea819e23f80fd5af7813f228da634"),
    (('random_points', 8, 4),
     "9cc8dc8262ddf333b2ae4901929bd1f0d8638df7f31c74acf37bd99572ffeac5",
     "890685d2e9cb312531f4c05a26781f727af255290d8fc205b7ebf446064fc1c5"),
    (('random_points', 9, 5),
     "bbadb0f40c02509596c862cbcb0664bc84909ed6145ba567858c3d2b14f65696",
     "4626480ec38b83288dc1eed01989085740bf07445b05a975ee758020622106bd"),
    (('random_points', 10, 6),
     "a7b474705c808d8dafdbad88c1a4c636bca230093cc3a2d485a93b82568be6ac",
     "90f81862d7e672133d943d78040c32aa2b54ca174c6b97aa94b3cd80123012f0"),
    (('monotone_perturbed', 4, 400),
     "1e92fe2bbde842a50251fee09029e9efb6c93ee98f9d897db377f571edd0f64b",
     "b79c56e9924ecca4b6da1f775d2bcf6214c6a892b57a8199f811da7bbe5a33ee"),
    (('monotone_perturbed', 5, 401),
     "8571b59138564092e28b610ae1cdadad7c953a1176147f6bf95469aa2ba9f9b7",
     "e71e3705726a36ad804aebacd004a4b630db44b63ff69d069b2703677cfea0d1"),
    (('monotone_perturbed', 6, 402),
     "7f3499d130184e4e3ff38ccd625fa4484c60355cb8d89e6d2bd5cf91ac317f63",
     "d6e8f54df4dae11d93926a8355ee9f54c1e3e56edeba69824870fc5fd60dda66"),
    (('monotone_perturbed', 7, 403),
     "4bce96ae9a21baa0072134fbaf535c5a92db5a4baed224e0f060f78ab438b162",
     "f5a7f467beff100c3eecc15114db2d64be4f4c54ffa3a23099308879254e7bd5"),
    (('monotone_perturbed', 8, 404),
     "b3461b49ea236ec3efbf80ea89146e3b347ca2dba336011d19f34a5ba4f070ff",
     "ce17e8111f9f10d644c9a0537fd087769666dbb0807b9347e6d367e184fdf314"),
    (('monotone_perturbed', 9, 405),
     "3aeacbed09535ad2e4bf9e9320248f97c17c7c922a515bb1fd0c0d586d660ddd",
     "2450fc21c59c72325059e08372cccc9f6c66aef36930ed50eb1093f05bb9d2c5"),
    (('monotone_perturbed', 10, 406),
     "02a8abb9d36da1a7af74993bd842cd71dcbf8385138e27297db7a69721757556",
     "e4caa21118d6713476c46f1652ae4e090bc2ce426220815b551ecd7d14f606a9"),
    (('monotone_perturbed', 8, 0),
     "1fdaa9b55103697939eb7b759ba9dd40c74e6f7968b05916dbd541844affcb14",
     "20a08cb995b2e006d5d9cc9c840ef57f6920387386309d98c26bfb3ba98b15e9"),
    (('monotone_perturbed', 10, 0),
     "91b4f103aa753105b8aec40d4959caabae11967835f9868511d660a71d7fb69d",
     "2a629155621ec15b36ea49fd80de4079cd86d11a092c18a7d55c63926bc9553e"),
    (('strongly_cmonotone', 4, 700),
     "bd9e089b9f98d514b30449068ae926e7ad0e576f872ff8b91a9bc04a124eb6d7",
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (('strongly_cmonotone', 5, 701),
     "e8a2da4726293d4ff852bd04d71a8d4d039b314d174576a2ce93ccac7ecdc241",
     "cc7021f3b648a4ed5408b0de5a4f19524aade0c9531390f15b1c4143099b4316"),
    (('strongly_cmonotone', 6, 702),
     "b2b942b21e6c9ab93c0ca5367595056fee857ef2746ddcb848c201f550b1c7c0",
     "9b80ef70d88613c554a20ea95d11aeb4510443223ec3c9b903d0a2688293460d"),
    (('strongly_cmonotone', 7, 703),
     "a4a4ee52bbd503856e4692f8fd314c4714f98b13fc8fb3df5b9b6b8d59c37d1f",
     "5951f9496819e53aab891e65e76f36d20415a21bdff0a79a7044a8ed65a7f631"),
    (('strongly_cmonotone', 8, 704),
     "64f3f393fab77e6e95e4d2c174cd62e2e9787e2ce724ea3454bd4c7022025d7a",
     "2713f7c40b204b1fda50a9de0a3347dc0e71d1f5c2eb03d30763819b2adfa329"),
    (('strongly_cmonotone', 4, 1),
     "5d105ba0e9ef68605ff9781211c7f5283728c1438754f7aec2f49fa5e188e8b7",
     "b79c56e9924ecca4b6da1f775d2bcf6214c6a892b57a8199f811da7bbe5a33ee"),
    (('strongly_cmonotone', 5, 1),
     "3508402db466074d2e6b578d821659330424543a239b4d2306f45a0c54790191",
     "dddb3d6d48f8da44ba4d019478e90faef2df6db4108a94745fd11786aee06157"),
    (('strongly_cmonotone', 6, 1),
     "60735b7c172305b842d125f8023427cc895729f362a2b4d1e932ba2b41577920",
     "07ade4f05f54bf25f5906d6b12c6b80214ff08df666bc8a8c8d6d433bb7b4d62"),
    (('strongly_cmonotone', 7, 1),
     "ff00b0c2522f97b06508e5dd74b399255e93943d2b57bab45093b7abdcd42c9a",
     "722676c9a9ba0de7340bbc78930beafb2ecc0d26bbab37f816b383a39e9a9bae"),
    (('strongly_cmonotone', 8, 1),
     "f66205f3037f3c404511cf61d6fa7e40cb097e57fbcfef796ddc4f1cfbff6446",
     "dabc4a887f8847668c4ce3d8e99adeb6ba60dfd6415d57857c913f8c27e88eb3"),
    (('two_page', 4, 0),
     "d131efb2950c04d32a72219d066dace4ebc6a85abd98a0a2d34cd4a3cb09b037",
     "a097bff36a7ff4f110e81c72512a3a893e010f25651f4a0512afef023cfce613"),
    (('two_page', 4, 1),
     "086d9a6b694a31014b13856ce7ea39a96a1b5cae8d73dac8dbbc45b0e62c100d",
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (('two_page', 5, 0),
     "a40e5793acd602754fad38f1be00777108678bfbc61c17589b5013f621837cdf",
     "b9426cb2ad403a0ec8129f4ca51735889571410367c77773e3c6b111a0f1f075"),
    (('two_page', 5, 1),
     "da166958cfe4a79482e5b9a5ddf7133313b7e558a267bbbbd2841931ba1230f5",
     "2c317816638061f9992a37ffddc020c89731ddcc7dfdbf68bee8dc12992c04b5"),
    (('two_page', 6, 0),
     "f0303ed8d15935247964eca1aa8336dcbc8b6988502549eb850f66a92cfe739c",
     "65c943333243f40343229e6dfea78a6d8baaa7628d97f971e64eb255668cfdc0"),
    (('two_page', 6, 1),
     "c2e520ef8a8c9152c38d23ede8681911fc2b9591bad2e46d06ae1f8bf2df57f9",
     "ef1784bdda7475eb363fd1337b24390aaf42ab93f8c146d8b3bb9ef5f9743cc3"),
    (('two_page', 7, 0),
     "9c24bd6d7169d6bc8926ace441810bbc4bdc1bd5044ae43950b9c945ec7c90ef",
     "edaea454d8bdac9607b40673f1967ae12583354f423c75f775ae6d8bdbfd958b"),
    (('cylindrical', 4, 0, 2, 2),
     "9756d6dcf0b0f2abb0afb5c28fa5573f20f26da57dac9a5a2dacf547010820ae",
     "b79c56e9924ecca4b6da1f775d2bcf6214c6a892b57a8199f811da7bbe5a33ee"),
    (('cylindrical', 4, 0, 1, 3),
     "52774bcddac1b638f0c73ed5409cd9f431b8f727aebf861c047a1fd06dd8f092",
     "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (('cylindrical', 5, 0, 2, 3),
     "06763972451b6e6f82321e45476ee7bde3dcfb121a6f502ecbbcdbdb65ad5461",
     "35f38517cca80a6701320a9bad95b136459f8ba198f7d1130fe78b6a0705b281"),
    (('cylindrical', 5, 0, 1, 4),
     "0037e08daab40b4965671b994522bb4b97deded94d30c0ae678e1f39c1f107ac",
     "cfaa96fd0e9e77f9ccdc0f90055ea68374e3b546c44929781063eb1dad254cb2"),
    (('cylindrical', 6, 0, 3, 3),
     "b9f6b0cf08a2f9707aa902185b83226fc18756b084259f39726e2541f07eff13",
     "4348f35587a71e0ce5c466a8586cd3160833d36bc8921a00153746ad6f571633"),
    (('cylindrical', 6, 0, 2, 4),
     "1d1dbe554a90183268879ea6268089577f62d745d35286a7089ed081e845e3c0",
     "0eb6e8be270d0492a100345b4958e7980ec17247b82b5864462143e84fa25fc2"),
]


def _digests(cell):
    cls, n, seed, *ab = cell
    a, b = ab if ab else (None, None)
    d = generate(GenSpec(cls=cls, n=n, seed=seed, a=a, b=b))
    text = fileio.dumps(fileio.drawing_to_dict(d))
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(repr(d.crossing_pairs()).encode()).hexdigest())


@pytest.mark.parametrize("cell, drawing_digest, crossings_digest", GOLDEN,
                         ids=["-".join(map(str, c)) for c, _, _ in GOLDEN])
def test_generated_drawing_pinned(cell, drawing_digest, crossings_digest):
    assert _digests(cell) == (drawing_digest, crossings_digest)
