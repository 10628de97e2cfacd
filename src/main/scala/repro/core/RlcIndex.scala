package repro.core

/** Growable parallel-array entry list: `(hop vertex, packed MR)` pairs kept
  * sorted by the hop's access id (entries are only ever appended in access-id
  * order by the builders, so appends preserve order for free).
  */
final class EntryList extends Serializable {
  var hops: Array[Int] = EntryList.EmptyHops
  var mrs: Array[Long] = EntryList.EmptyMrs
  var n: Int = 0

  def add(hop: Int, mr: Long): Unit = {
    if (n == hops.length) {
      val cap = math.max(4, hops.length * 2)
      hops = java.util.Arrays.copyOf(hops, cap)
      mrs = java.util.Arrays.copyOf(mrs, cap)
    }
    hops(n) = hop; mrs(n) = mr; n += 1
  }

  def foreachEntry(f: (Int, Long) => Unit): Unit = {
    var i = 0
    while (i < n) { f(hops(i), mrs(i)); i += 1 }
  }

  /** Case 2 of Def. 4: is `(hop, mr)` here? A lower bound on `aid(hop)`, then a scan of hop's run. */
  def contains(aid: Array[Int], hop: Int, mr: Long): Boolean = {
    val target = aid(hop)
    var lo = 0; var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (aid(hops(mid)) < target) lo = mid + 1 else hi = mid
    }
    while (lo < n && hops(lo) == hop) { if (mrs(lo) == mr) return true; lo += 1 }
    false
  }

  /** Case 1 of Def. 4: merge join with `that` — is there a hop `x` such that
    * `(x, mr)` appears in both? `excludeHop` (if >= 0) skips one hop — used by
    * the condensed-property checker so an entry cannot serve as its own
    * Case-1 witness.
    */
  def joins(aid: Array[Int], that: EntryList, mr: Long, excludeHop: Int = -1): Boolean = {
    val hopsB = that.hops; val mrsB = that.mrs; val nB = that.n
    var i = 0; var j = 0
    while (i < n && j < nB) {
      val ai = aid(hops(i)); val aj = aid(hopsB(j))
      if (ai < aj) i += 1
      else if (ai > aj) j += 1
      else {
        val hop = hops(i)
        var hasA = false
        while (i < n && hops(i) == hop) { if (mrs(i) == mr) hasA = true; i += 1 }
        var hasB = false
        while (j < nB && hopsB(j) == hop) { if (mrsB(j) == mr) hasB = true; j += 1 }
        if (hasA && hasB && hop != excludeHop) return true
      }
    }
    false
  }
}

object EntryList {
  private val EmptyHops = new Array[Int](0)
  private val EmptyMrs  = new Array[Long](0)
}

/** The RLC index (paper Def. 4): per vertex `v`, `L_out(v)` holds
  * `(w, MR)` with `v ⇝ w` via an `MR^+` path, and `L_in(v)` holds
  * `(u, MR)` with `u ⇝ v` via an `MR^+` path — restricted to the entries the
  * condensed construction keeps. `aid` is the vertex access order (IN-OUT
  * strategy), 1-based like the paper; entry lists are sorted by `aid(hop)`
  * so queries are a merge join (Algorithm 1) without sorting.
  *
  * The builders and the [[CaseOne]] view name a list by its *list id*: `v`
  * for `L_in(v)` and `|V| + v` for `L_out(v)`.
  */
final class RlcIndex(
    val numVertices: Int,
    val k: Int,
    val aid: Array[Int],
) extends CaseOne with Serializable {

  val out: Array[EntryList] = Array.fill(numVertices)(new EntryList)
  val in: Array[EntryList]  = Array.fill(numVertices)(new EntryList)

  def addOut(v: Int, hop: Int, mr: Long): Unit = out(v).add(hop, mr)
  def addIn(v: Int, hop: Int, mr: Long): Unit  = in(v).add(hop, mr)

  /** The list with id `l`: `L_in(l)` below `|V|`, else `L_out(l − |V|)`. */
  def list(l: Int): EntryList = if (l < numVertices) in(l) else out(l - numVertices)
  def hops(l: Int): Array[Int] = list(l).hops
  def mrs(l: Int): Array[Long] = list(l).mrs
  def from(l: Int): Int = 0
  def to(l: Int): Int = list(l).n

  def outContains(s: Int, hop: Int, mr: Long): Boolean = out(s).contains(aid, hop, mr)
  def inContains(t: Int, hop: Int, mr: Long): Boolean  = in(t).contains(aid, hop, mr)

  /** Case 1 of Def. 4 via merge join over `L_out(s)` and `L_in(t)`:
    * is there a hop `x` with `(x, mr)` in both?
    */
  def caseOneJoin(s: Int, t: Int, mr: Long): Boolean = out(s).joins(aid, in(t), mr)

  /** Algorithm 1: answer the RLC query `(s, t, mr^+)` for a primitive `mr`
    * of length <= k. Case 2 (direct entries) then Case 1 (merge join).
    */
  def query(s: Int, t: Int, mr: Long): Boolean =
    outContains(s, t, mr) || inContains(t, s, mr) || caseOneJoin(s, t, mr)

  /** Public query entry point with the Def. 1 contract checks. */
  def answer(s: Int, t: Int, mr: Long): Boolean = {
    require(LabelSeq.length(mr) >= 1 && LabelSeq.length(mr) <= k,
      s"constraint length ${LabelSeq.length(mr)} outside 1..$k")
    require(LabelSeq.isPrimitive(mr), s"constraint ${LabelSeq.show(mr)} is not a minimum repeat")
    query(s, t, mr)
  }

  def entryCount: Long = {
    var total = 0L
    var v = 0
    while (v < numVertices) { total += out(v).n + in(v).n; v += 1 }
    total
  }

  /** Estimated resident size: 12 bytes per entry (4-byte hop + 8-byte packed
    * MR) plus the [[FlatRlcIndex]] snapshot's two 4-byte list offsets per
    * vertex — the formula quoted in DESIGN.md so Table IV's MB column is
    * re-derivable. It leaves out the live lists' spare capacity and the 2·|V|
    * `EntryList` objects: on WN-lite at k = 2 it gives 8.25 MB, where the
    * retained heap reads about 15.15 MB.
    */
  def sizeInBytes: Long = entryCount * 12L + numVertices.toLong * 8L

  def sizeInMB: Double = sizeInBytes / 1e6

  /** Violations of the condensed property (Def. 5): entries `(t,L) ∈ L_out(s)`
    * (or `(s,L) ∈ L_in(t)`) that are also derivable via Case 1 *through other
    * entries* — the hop equal to the entry's own endpoint is excluded, since
    * there the entry under test would be its own witness (the paper's Table II
    * keeps exactly those entries). Returns the number of redundant entries
    * (0 for a condensed index).
    */
  def condensedViolations: Long = {
    var bad = 0L
    var v = 0
    while (v < numVertices) {
      out(v).foreachEntry((hop, mr) => if (out(v).joins(aid, in(hop), mr, excludeHop = hop)) bad += 1)
      in(v).foreachEntry((hop, mr) => if (out(hop).joins(aid, in(v), mr, excludeHop = hop)) bad += 1)
      v += 1
    }
    bad
  }
}
