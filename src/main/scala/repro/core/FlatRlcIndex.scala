package repro.core

/** Immutable CSR-packed snapshot of an [[RlcIndex]] — cheap to serialize
  * and broadcast (six flat arrays instead of 2·|V| objects). The distributed
  * builder's tasks need only its Case-1 join, the same [[EntryOps]] merge
  * join as the live index's: no snapshot entry can answer their PR1 by
  * Case 2 (see [[RootInserter]]).
  */
final class FlatRlcIndex(
    val aid: Array[Int],
    val outOff: Array[Int], val outHops: Array[Int], val outMrs: Array[Long],
    val inOff: Array[Int], val inHops: Array[Int], val inMrs: Array[Long],
) extends CaseOne with Serializable {

  def caseOneJoin(s: Int, t: Int, mr: Long): Boolean =
    EntryOps.mergeJoin(aid, outHops, outMrs, outOff(s), outOff(s + 1),
      inHops, inMrs, inOff(t), inOff(t + 1), mr)
}

object FlatRlcIndex {

  def fromIndex(index: RlcIndex): FlatRlcIndex = {
    val n = index.numVertices
    def pack(lists: Array[EntryList]): (Array[Int], Array[Int], Array[Long]) = {
      val off = new Array[Int](n + 1)
      var v = 0
      while (v < n) { off(v + 1) = off(v) + lists(v).n; v += 1 }
      val hops = new Array[Int](off(n))
      val mrs  = new Array[Long](off(n))
      v = 0
      while (v < n) {
        System.arraycopy(lists(v).hops, 0, hops, off(v), lists(v).n)
        System.arraycopy(lists(v).mrs, 0, mrs, off(v), lists(v).n)
        v += 1
      }
      (off, hops, mrs)
    }
    val (oo, oh, om) = pack(index.out)
    val (io, ih, im) = pack(index.in)
    new FlatRlcIndex(index.aid, oo, oh, om, io, ih, im)
  }
}
