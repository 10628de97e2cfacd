package repro.perfbench

import com.fasterxml.jackson.databind.node.ObjectNode
import java.io.File
import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** Entry point: `--workload W --seed N --seconds S --trace 0|1`, run from
  * the repository root. The metric names and units come from
  * BENCHMARK.json: an untraced run reports every end-to-end metric, a traced
  * run every per-layer metric (0 for a layer the workload does not run).
  * Human-readable lines come first; the last line is the result object.
  */
object Main {

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    Console.err.println("usage: --workload " + Workloads.Names.mkString("|") +
      " --seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  def parse(argv: Array[String]): Args = {
    if (argv.length % 2 != 0) usage("arguments come in --name value pairs")
    val kv = argv.grouped(2).map(p => p(0) -> p(1)).toMap
    val unknown = kv.keySet -- Set("--workload", "--seed", "--seconds", "--trace")
    if (unknown.nonEmpty) usage(s"unknown arguments ${unknown.mkString(" ")}")
    val workload = kv.getOrElse("--workload", usage("--workload is required"))
    if (!Workloads.Names.contains(workload)) usage(s"unknown workload $workload")
    def num[A](key: String, default: String)(conv: String => A): A =
      try conv(kv.getOrElse(key, default))
      catch { case _: NumberFormatException => usage(s"$key takes a number") }
    val seconds = num("--seconds", "12")(_.toDouble)
    if (!(seconds > 0)) usage("--seconds must be positive")
    val trace = kv.getOrElse("--trace", "0")
    if (trace != "0" && trace != "1") usage("--trace takes 0 or 1")
    Args(workload, num("--seed", "0")(_.toLong), seconds, trace == "1")
  }

  /** (name, unit) of the end-to-end or per-layer metrics in BENCHMARK.json. */
  private def declared(key: String): Seq[(String, String)] = {
    val file = new File("BENCHMARK.json")
    if (!file.isFile) usage("BENCHMARK.json not found: run from the repository root")
    Report.mapper.readTree(file).get(key).elements().asScala.toSeq
      .map(m => m.get("name").asText() -> m.get("unit").asText())
  }

  private def machineFacts(r: Report): Unit = {
    val rt = Runtime.getRuntime
    r.fact("nproc", rt.availableProcessors)
    r.fact("max_heap_mb", rt.maxMemory / (1L << 20))
    r.fact("jdk", s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}")
    r.fact("gc", Jvm.gcNames)
    r.fact("jvm_args", ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filter(a => a.startsWith("-X") && !a.startsWith("-XX:-UsePerfData")).mkString(" "))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val spec = declared(if (args.trace) "per_layer" else "end_to_end")
    val report = new Report
    val trace = new Trace(args.trace)
    machineFacts(report)
    try Workloads.run(args, report, trace)
    catch {
      case e: Throwable =>
        Console.err.println(s"perfbench: ${args.workload} failed")
        e.printStackTrace()
        sys.exit(1)
    }

    val recorded = report.metrics.toMap
    val dup = report.metrics.map(_._1).diff(recorded.keys.toSeq)
    require(dup.isEmpty, s"metrics recorded twice: ${dup.mkString(", ")}")
    val undeclared = recorded.keySet -- spec.map(_._1)
    require(undeclared.isEmpty, s"metrics missing from BENCHMARK.json: ${undeclared.mkString(", ")}")
    val missing = spec.map(_._1).filterNot(recorded.contains)
    if (!args.trace)
      require(missing.isEmpty, s"end-to-end metrics not measured: ${missing.mkString(", ")}")
    else if (missing.nonEmpty)
      report.fact("layers_not_run", missing.mkString(" "))

    val wrongFrac = report.failed.toDouble / math.max(1L, report.attempted)
    for ((name, unit) <- spec)
      println(f"metric $name%-28s ${recorded.getOrElse(name, 0.0)}%16.6f $unit")
    println(f"metric ${"wrong_answer_frac"}%-28s $wrongFrac%16.6f ratio")
    val json = Report.mapper
    def metricsNode(withUnit: Boolean): ObjectNode = {
      val node = json.createObjectNode()
      for ((name, unit) <- spec) {
        val value = recorded.getOrElse(name, 0.0)
        if (withUnit) node.putObject(name).put("value", value).put("unit", unit)
        else node.put(name, value)
      }
      node
    }
    val factsLine = json.createObjectNode()
    factsLine.set[ObjectNode]("facts", report.facts)
    println(json.writeValueAsString(factsLine))

    if (args.trace) {
      val dir = new File(".bench_build/traces")
      dir.mkdirs()
      val out = new File(dir, s"${args.workload}-seed${args.seed}.json")
      val traceFile = json.createObjectNode()
      traceFile.set[ObjectNode]("facts", report.facts)
      traceFile.set[ObjectNode]("metrics", metricsNode(withUnit = false))
      traceFile.set[ObjectNode]("spans", trace.toJson)
      json.writeValue(out, traceFile)
      println(s"trace written to $out")
    }

    val correct = report.failed == 0
    val result = json.createObjectNode()
      .put("correct", correct)
      .put("attempted", report.attempted)
      .put("failed", report.failed)
    result.set[ObjectNode]("metrics", metricsNode(withUnit = true))
    println(json.writeValueAsString(result))
    if (!correct) Console.err.println(s"perfbench: ${report.failed} of ${report.attempted} checks wrong")
    System.out.flush()
    sys.exit(if (correct) 0 else 1)
  }
}
