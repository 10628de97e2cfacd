package repro.perfbench

import java.io.{BufferedInputStream, FileInputStream, ObjectInputStream}
import repro.core.RlcIndex
import repro.graph.LabeledGraph

/** Entry point of the fresh JVM that `Queries.measureInFreshJvm` starts:
  * `<input file> <seconds>`. Loads the input `Queries.Replicas` times,
  * warms up (`Queries.warmUp`), measures, and prints one line: the
  * `QueryResult` fields, warm-up answers included in the checks, then the
  * seconds spent loading and warming up.
  */
object QueryPhase {
  private def load(file: String): (LabeledGraph, RlcIndex, QuerySets) = {
    val in = new ObjectInputStream(new BufferedInputStream(new FileInputStream(file)))
    try (in.readObject().asInstanceOf[LabeledGraph], in.readObject().asInstanceOf[RlcIndex],
         in.readObject().asInstanceOf[QuerySets])
    finally in.close()
  }

  def main(args: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val loaded = Seq.fill(Queries.Replicas)(load(args(0)))
    val replicas = loaded.map { case (g, index, _) => Replica(g, index) }
    val sets = loaded.head._3
    val (warmChecked, warmWrong) = Queries.warmUp(replicas, sets)
    val setupS = (System.nanoTime() - t0) / 1e9
    val q = Queries.measure(replicas, sets, args(1).toDouble)
    println(Seq(q.nsP50, q.nsP99, q.passes, q.mqps, q.q4UsP50, q.q4UsP99, q.q4Passes,
      q.checked + warmChecked, q.wrong + warmWrong, setupS).mkString(" "))
  }
}
