package repro.core

/** Immutable CSR-packed snapshot of an [[RlcIndex]] — cheap to serialize
  * and broadcast (four flat arrays instead of 2·|V| objects). The list with
  * list id `l` (`v` for `L_in(v)`, `|V| + v` for `L_out(v)`) is
  * `entryHops/entryMrs[off(l), off(l+1))`. The distributed builder's tasks
  * read it only as the [[CaseOne]] view of their [[RootInserter]]s.
  */
final class FlatRlcIndex(
    val aid: Array[Int], val off: Array[Int],
    val entryHops: Array[Int], val entryMrs: Array[Long],
) extends CaseOne with Serializable {

  def hops(l: Int): Array[Int] = entryHops
  def mrs(l: Int): Array[Long] = entryMrs
  def from(l: Int): Int = off(l)
  def to(l: Int): Int = off(l + 1)
}

object FlatRlcIndex {

  def fromIndex(index: RlcIndex): FlatRlcIndex = {
    val lists = 2 * index.numVertices
    val total = Math.toIntExact(index.entryCount)
    val off   = new Array[Int](lists + 1)
    val hops  = new Array[Int](total)
    val mrs   = new Array[Long](total)
    var l = 0
    while (l < lists) {
      val e = index.list(l)
      System.arraycopy(e.hops, 0, hops, off(l), e.n)
      System.arraycopy(e.mrs, 0, mrs, off(l), e.n)
      off(l + 1) = off(l) + e.n
      l += 1
    }
    new FlatRlcIndex(index.aid, off, hops, mrs)
  }
}
