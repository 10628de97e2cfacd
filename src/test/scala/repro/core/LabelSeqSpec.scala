package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite

/** Packed sequences, minimum repeats, kernels, and the Theorem 1 k-MR
  * machinery, checked against naive reference implementations.
  */
class LabelSeqSpec extends AnyFunSuite {

  /** Naive MR: shortest prefix p with p | n that tiles the sequence. */
  private def naiveMr(seq: Seq[Int]): Seq[Int] = {
    val n = seq.length
    (1 to n).find(p => n % p == 0 && seq.indices.forall(i => seq(i) == seq(i % p)))
      .map(p => seq.take(p)).getOrElse(seq)
  }

  private def allSeqs(labels: Int, len: Int): Iterator[List[Int]] =
    if (len == 0) Iterator(Nil)
    else allSeqs(labels, len - 1).flatMap(s => (0 until labels).iterator.map(_ :: s))

  test("encode/decode roundtrip on random sequences") {
    val rng = new SplittableRandom(7)
    for (_ <- 1 to 500) {
      val len = 1 + rng.nextInt(LabelSeq.MaxLen)
      val seq = Array.fill(len)(rng.nextInt(LabelSeq.MaxLabels))
      val code = LabelSeq.encode(seq)
      assert(LabelSeq.decode(code).toSeq == seq.toSeq)
      assert(LabelSeq.length(code) == len)
      seq.indices.foreach(i => assert(LabelSeq.labelAt(code, i) == seq(i)))
    }
  }

  test("empty sequence has length 0") {
    assert(LabelSeq.length(LabelSeq.Empty) == 0)
    assert(LabelSeq.decode(LabelSeq.Empty).isEmpty)
  }

  test("append builds the same code as encode") {
    val rng = new SplittableRandom(11)
    for (_ <- 1 to 300) {
      val len = 1 + rng.nextInt(LabelSeq.MaxLen)
      val seq = Array.fill(len)(rng.nextInt(256))
      val built = seq.foldLeft(LabelSeq.Empty)(LabelSeq.append)
      assert(built == LabelSeq.encode(seq))
    }
  }

  test("prepend builds the same code as encode") {
    val rng = new SplittableRandom(13)
    for (_ <- 1 to 300) {
      val len = 1 + rng.nextInt(LabelSeq.MaxLen)
      val seq = Array.fill(len)(rng.nextInt(256))
      val built = seq.reverseIterator.foldLeft(LabelSeq.Empty)((acc, l) => LabelSeq.prepend(l, acc))
      assert(built == LabelSeq.encode(seq))
    }
  }

  test("concat matches encode of concatenation; empty is the unit") {
    val rng = new SplittableRandom(17)
    for (_ <- 1 to 300) {
      val la = rng.nextInt(LabelSeq.MaxLen + 1)
      val lb = rng.nextInt(LabelSeq.MaxLen + 1 - la)
      val a = Array.fill(la)(rng.nextInt(256))
      val b = Array.fill(lb)(rng.nextInt(256))
      assert(LabelSeq.concat(LabelSeq.encode(a), LabelSeq.encode(b)) == LabelSeq.encode(a ++ b))
    }
    val x = LabelSeq.encode(1, 2, 3)
    assert(LabelSeq.concat(x, LabelSeq.Empty) == x)
    assert(LabelSeq.concat(LabelSeq.Empty, x) == x)
  }

  test("prefix extracts leading labels") {
    val code = LabelSeq.encode(4, 9, 4, 9, 4)
    assert(LabelSeq.decode(LabelSeq.prefix(code, 2)).toSeq == Seq(4, 9))
    assert(LabelSeq.prefix(code, 0) == LabelSeq.Empty)
    assert(LabelSeq.prefix(code, 5) == code)
  }

  // MR vs naive, exhaustively per (alphabet, length).
  for (labels <- 1 to 3; len <- 1 to (if (labels == 1) 6 else if (labels == 2) 6 else 4))
    test(s"mr matches naive reference exhaustively: $labels labels, length $len") {
      allSeqs(labels, len).foreach { s =>
        val code = LabelSeq.encode(s.toArray)
        assert(LabelSeq.decode(LabelSeq.mr(code)).toSeq == naiveMr(s),
          s"seq=$s")
        assert(LabelSeqRef.mrArr(s.toArray).toSeq == naiveMr(s))
      }
    }

  test("mr examples from the paper") {
    // MR((knows,knows,knows,knows)) = (knows); MR((knows,worksFor,knows,worksFor)) = (knows,worksFor)
    assert(LabelSeq.mr(LabelSeq.encode(0, 0, 0, 0)) == LabelSeq.encode(0))
    assert(LabelSeq.mr(LabelSeq.encode(0, 1, 0, 1)) == LabelSeq.encode(0, 1))
    assert(LabelSeq.mr(LabelSeq.encode(0, 1, 0)) == LabelSeq.encode(0, 1, 0))
  }

  test("MR is idempotent (Lemma 1 uniqueness)") {
    val rng = new SplittableRandom(23)
    for (_ <- 1 to 500) {
      val len = 1 + rng.nextInt(LabelSeq.MaxLen)
      val code = LabelSeq.encode(Array.fill(len)(rng.nextInt(3)))
      val m = LabelSeq.mr(code)
      assert(LabelSeq.mr(m) == m)
      assert(LabelSeq.isPrimitive(m))
    }
  }

  // primitive counting formula C = Σ F(i) vs enumeration
  for (labels <- 1 to 4; k <- 1 to (if (labels <= 2) 6 else 4))
    test(s"primitive count formula matches enumeration: |L|=$labels, k=$k") {
      val enumerated = (1 to k).map { len =>
        allSeqs(labels, len).count(s => naiveMr(s).length == s.length).toLong
      }.sum
      assert(LabelSeq.primitiveCountUpTo(labels, k) == enumerated)
    }

  // ---- kernels (Def. 3) ----

  /** Naive kernel search straight off Def. 3. */
  private def naiveKernelLengths(seq: Seq[Int]): Seq[Int] =
    (1 to seq.length / 2).filter { m =>
      val kernel = seq.take(m)
      naiveMr(kernel).length == m &&
      seq.indices.forall(i => seq(i) == kernel(i % m))
    }

  test("kernel is unique when it exists (Lemma 2), exhaustive over 2 labels up to length 12") {
    def seqsOf(len: Int): Iterator[Seq[Int]] =
      Iterator.range(0, 1 << len).map(b => Seq.tabulate(len)(i => (b >> i) & 1))
    for (len <- 2 to 12; s <- seqsOf(len)) {
      val ks = naiveKernelLengths(s)
      assert(ks.size <= 1, s"multiple kernels $ks for $s")
      assert(LabelSeqRef.kernelLength(s.toArray) == ks.headOption.getOrElse(-1), s"seq=$s")
    }
  }

  test("kernel examples: (knows,knows,knows,knows) has kernel knows, tail ε") {
    assert(LabelSeqRef.kernelLength(Array(0, 0, 0, 0)) == 1)
    assert(LabelSeqRef.kernelLength(Array(0, 1, 0, 1, 0)) == 2) // tail = proper prefix (0)
    assert(LabelSeqRef.kernelLength(Array(0, 1, 1, 0)) == -1)
    assert(LabelSeqRef.kernelLength(Array(0, 1)) == -1) // h >= 2 required
  }

  // ---- Theorem 1: kMR vs direct MR with exhaustive/randomized paths ----

  for (k <- 1 to 3)
    test(s"Theorem 1 cases agree with direct MR for short sequences, k=$k") {
      for (len <- 1 to 2 * k; s <- allSeqs(2, len)) {
        val got = LabelSeqRef.kMR(s.toArray, k).map(_.toSeq)
        val expect = Some(naiveMr(s)).filter(_.length <= k)
        assert(got == expect, s"seq=$s")
      }
    }

  for (k <- 1 to 3)
    test(s"Theorem 1 Case 3 agrees with direct MR for long sequences, k=$k") {
      val rng = new SplittableRandom(100 + k)
      for (_ <- 1 to 2000) {
        val len = 2 * k + 1 + rng.nextInt(8)
        val s = Array.fill(len)(rng.nextInt(2))
        val got = LabelSeqRef.kMR(s, k).map(_.toSeq)
        val expect = Some(naiveMr(s.toSeq)).filter(_.length <= k)
        assert(got == expect, s"seq=${s.toSeq}")
      }
      // adversarial: true powers with occasional corruption
      for (_ <- 1 to 2000) {
        val m = 1 + rng.nextInt(k)
        val kernel = Array.fill(m)(rng.nextInt(3))
        val reps = 2 + rng.nextInt(5)
        val s = Array.tabulate(m * reps + rng.nextInt(m))(i => kernel(i % m))
        if (rng.nextBoolean() && s.length > 2 * k) s(s.length - 1 - rng.nextInt(2)) ^= 1
        if (s.nonEmpty) {
          val got = LabelSeqRef.kMR(s, k).map(_.toSeq)
          val expect = Some(naiveMr(s.toSeq)).filter(_.length <= k)
          assert(got == expect, s"seq=${s.toSeq}")
        }
      }
    }

  test("show renders 1-indexed labels like the paper") {
    assert(LabelSeq.show(LabelSeq.encode(1, 0)) == "(l2,l1)")
  }

  test("guards: overlong sequences and out-of-range labels rejected") {
    intercept[IllegalArgumentException](LabelSeq.encode(Array.fill(7)(0)))
    intercept[IllegalArgumentException](LabelSeq.encode(Array(256)))
    intercept[IllegalArgumentException](LabelSeq.append(LabelSeq.encode(Array.fill(6)(0)), 1))
  }
}
