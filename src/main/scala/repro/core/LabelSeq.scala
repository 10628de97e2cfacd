package repro.core

/** Packed label sequences and minimum-repeat (MR) machinery (paper Sec. III-A, IV).
  *
  * A label sequence of length 1..6 over at most 256 labels is packed into a
  * single `Long`: label `i` (0-indexed position, reading the path left to
  * right) occupies bits `8*i .. 8*i+7`; the length occupies bits 48..55.
  * The empty sequence is encoded as 0L. Packing keeps the hot loops of the
  * indexing algorithm allocation-free.
  *
  * Terminology (paper):
  *  - a *repeat* `L'` of `L` satisfies `L = L'^z` for an integer `z >= 1`;
  *  - the *minimum repeat* `MR(L)` is the shortest repeat (unique, Lemma 1);
  *  - `L` is *primitive* iff `MR(L) = L`;
  *  - `L` has *kernel* `L'` and *tail* `L''` iff `L = L'^h ∘ L''` with
  *    `h >= 2`, `L'` primitive, `L''` empty or a proper prefix of `L'`
  *    (Def. 3; the kernel is unique, Lemma 2).
  */
object LabelSeq {
  /** Maximum packable sequence length. Kernel-search packs sequences of at
    * most k labels, so the builders accept k <= 6 (tests cover k <= 3).
    */
  val MaxLen = 6

  /** Maximum label id (exclusive). */
  val MaxLabels = 256

  val Empty: Long = 0L

  def length(code: Long): Int = ((code >>> 48) & 0xffL).toInt

  def labelAt(code: Long, i: Int): Int = ((code >>> (8 * i)) & 0xffL).toInt

  def encode(labels: Array[Int]): Long = {
    require(labels.length <= MaxLen, s"sequence too long: ${labels.length} > $MaxLen")
    var code = labels.length.toLong << 48
    var i = 0
    while (i < labels.length) {
      val l = labels(i)
      require(l >= 0 && l < MaxLabels, s"label out of range: $l")
      code |= l.toLong << (8 * i)
      i += 1
    }
    code
  }

  def encode(labels: Int*): Long = encode(labels.toArray)

  def decode(code: Long): Array[Int] = {
    val n   = length(code)
    val out = new Array[Int](n)
    var i = 0
    while (i < n) { out(i) = labelAt(code, i); i += 1 }
    out
  }

  /** Append one label to the right (path extends forward). */
  def append(code: Long, label: Int): Long = {
    val n = length(code)
    require(n < MaxLen, s"append beyond MaxLen=$MaxLen")
    (code & ~(0xffL << 48)) | (label.toLong << (8 * n)) | ((n + 1).toLong << 48)
  }

  /** Prepend one label to the left (backward search extends a path backward). */
  def prepend(label: Int, code: Long): Long = {
    val n = length(code)
    require(n < MaxLen, s"prepend beyond MaxLen=$MaxLen")
    val labels = code & 0xffffffffffffL
    (labels << 8) | label.toLong | ((n + 1).toLong << 48)
  }

  /** Concatenation `a ∘ b`. */
  def concat(a: Long, b: Long): Long = {
    val na = length(a); val nb = length(b)
    require(na + nb <= MaxLen, s"concat beyond MaxLen=$MaxLen")
    val bl = b & 0xffffffffffffL
    (a & 0xffffffffffffL) | (bl << (8 * na)) | ((na + nb).toLong << 48)
  }

  /** The prefix of the first `p` labels. */
  def prefix(code: Long, p: Int): Long = {
    val n = length(code)
    require(p >= 0 && p <= n)
    (code & ((1L << (8 * p)) - 1)) | (p.toLong << 48)
  }

  /** True iff `d` is a period of the sequence: `L[i] == L[i-d]` for all `i >= d`. */
  private def hasPeriod(code: Long, d: Int): Boolean = {
    val n = length(code)
    var i = d
    while (i < n) {
      if (labelAt(code, i) != labelAt(code, i - d)) return false
      i += 1
    }
    true
  }

  /** Minimum repeat of a packed sequence: the shortest prefix whose length
    * divides `|L|` and which is a period of `L`. Exhaustive over divisors —
    * sequences here have length <= 6 so this is exact and effectively free.
    */
  def mr(code: Long): Long = {
    val n = length(code)
    var d = 1
    while (d < n) {
      if (n % d == 0 && hasPeriod(code, d)) return prefix(code, d)
      d += 1
    }
    code
  }

  def isPrimitive(code: Long): Boolean = mr(code) == code

  /** Pretty form, e.g. `(l1,l2)` with 0-indexed labels shown 1-indexed like the paper. */
  def show(code: Long): String =
    decode(code).map(l => s"l${l + 1}").mkString("(", ",", ")")

  /** Number of distinct minimum repeats (primitive sequences) of length
    * exactly `i` over an alphabet of `nLabels`:
    * `F(i) = nLabels^i − Σ_{j | i, j != i} F(j)` (paper Sec. V-C).
    */
  def primitiveCount(nLabels: Int, i: Int): Long = {
    var total = math.pow(nLabels, i).toLong
    var j = 1
    while (j < i) {
      if (i % j == 0) total -= primitiveCount(nLabels, j)
      j += 1
    }
    total
  }

  /** `C = Σ_{i=1..k} F(i)` — the number of possible distinct MRs (Sec. V-C). */
  def primitiveCountUpTo(nLabels: Int, k: Int): Long =
    (1 to k).map(primitiveCount(nLabels, _)).sum
}
