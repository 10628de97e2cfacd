package repro.core

/** Immutable CSR-packed snapshot of an [[RlcIndex]] — cheap to serialize
  * and broadcast (six flat arrays instead of 2·|V| objects). The distributed
  * builder's tasks read it only as the [[CaseOne]] view of their
  * [[RootInserter]]s: `L_out(v)` is `outHops/outMrs[outOff(v), outOff(v+1))`,
  * `L_in(v)` likewise.
  */
final class FlatRlcIndex(
    val aid: Array[Int],
    val outOff: Array[Int], val outHops: Array[Int], val outMrs: Array[Long],
    val inOff: Array[Int], val inHops: Array[Int], val inMrs: Array[Long],
) extends CaseOne with Serializable {

  def hops(v: Int, out: Boolean): Array[Int] = if (out) outHops else inHops
  def mrs(v: Int, out: Boolean): Array[Long] = if (out) outMrs else inMrs
  def from(v: Int, out: Boolean): Int = if (out) outOff(v) else inOff(v)
  def to(v: Int, out: Boolean): Int = if (out) outOff(v + 1) else inOff(v + 1)
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
