package repro.core

/** Arbitrary-length (array) reference implementations of the MR, kernel
  * and Theorem 1 k-MR definitions, for tests that check the packed
  * `LabelSeq` operations and exercise sequences longer than `MaxLen`.
  */
object LabelSeqRef {

  /** MR over an arbitrary-length sequence. */
  def mrArr(seq: Array[Int]): Array[Int] = {
    val n = seq.length
    var d = 1
    while (d < n) {
      if (n % d == 0) {
        var ok = true
        var i  = d
        while (ok && i < n) { ok = seq(i) == seq(i - d); i += 1 }
        if (ok) return seq.take(d)
      }
      d += 1
    }
    seq
  }

  /** Kernel length of `seq` per Def. 3, if any: the unique `m` such that
    * `seq = (prefix m)^h ∘ tail` with `h >= 2`, the prefix primitive, and the
    * tail empty or a proper prefix of the kernel. Returns -1 if no kernel.
    */
  def kernelLength(seq: Array[Int]): Int = {
    val n = seq.length
    var m = 1
    while (m * 2 <= n) {
      var ok = true
      var i  = m
      while (ok && i < n) { ok = seq(i) == seq(i % m); i += 1 }
      if (ok && mrArr(seq.take(m)).length == m) return m
      m += 1
    }
    -1
  }

  /** The k-MR of a path's label sequence, straight from Theorem 1:
    * Case 1/2 — `|seq| <= 2k`: `MR(seq)` if it is short enough;
    * Case 3 — `|seq| > 2k`: the kernel `L'` of the 2k-prefix, provided
    * `MR(tail ∘ rest) = L'`. Returns None when the path has no non-empty k-MR.
    * Used as a slow reference implementation in tests of the search.
    */
  def kMR(seq: Array[Int], k: Int): Option[Array[Int]] = {
    require(seq.nonEmpty)
    if (seq.length <= 2 * k) {
      val m = mrArr(seq)
      if (m.length <= k) Some(m) else None
    } else {
      val head = seq.take(2 * k)
      val m    = kernelLength(head)
      if (m < 0) None
      else {
        val kernel = head.take(m)
        val tail   = head.drop((2 * k / m) * m)
        val restMr = mrArr(tail ++ seq.drop(2 * k))
        if (restMr.sameElements(kernel)) Some(kernel) else None
      }
    }
  }
}
