package repro.core

/** Query primitives over entry ranges sorted by access id: Algorithm 1's
  * Case-2 lookup and Case-1 merge join over [[RlcIndex]] lists.
  */
object EntryOps {

  /** Is `(hop, mr)` present in `hops/mrs[from, to)` (sorted by aid(hop))? */
  def contains(aid: Array[Int], hops: Array[Int], mrs: Array[Long],
               from: Int, to: Int, hop: Int, mr: Long): Boolean = {
    val target = aid(hop)
    var lo = from; var hi = to - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val a = aid(hops(mid))
      if (a < target) lo = mid + 1
      else if (a > target) hi = mid - 1
      else {
        var i = mid
        while (i >= from && hops(i) == hop) { if (mrs(i) == mr) return true; i -= 1 }
        i = mid + 1
        while (i < to && hops(i) == hop) { if (mrs(i) == mr) return true; i += 1 }
        return false
      }
    }
    false
  }

  /** Case 1 of Def. 4: merge join of two aid-sorted ranges — is there a hop
    * `x` such that `(x, mr)` appears in both? `excludeHop` (if >= 0) skips
    * one hop — used by the condensed-property checker so an entry cannot
    * serve as its own Case-1 witness.
    */
  def mergeJoin(aid: Array[Int],
                hopsA: Array[Int], mrsA: Array[Long], fromA: Int, toA: Int,
                hopsB: Array[Int], mrsB: Array[Long], fromB: Int, toB: Int,
                mr: Long, excludeHop: Int = -1): Boolean = {
    var i = fromA; var j = fromB
    while (i < toA && j < toB) {
      val ai = aid(hopsA(i)); val aj = aid(hopsB(j))
      if (ai < aj) i += 1
      else if (ai > aj) j += 1
      else {
        val hop = hopsA(i)
        var hasA = false
        while (i < toA && hopsA(i) == hop) { if (mrsA(i) == mr) hasA = true; i += 1 }
        var hasB = false
        while (j < toB && hopsB(j) == hop) { if (mrsB(j) == mr) hasB = true; j += 1 }
        if (hasA && hasB && hop != excludeHop) return true
      }
    }
    false
  }
}
