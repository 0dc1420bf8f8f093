package repro.exp

import java.nio.file.{Files, Paths}
import repro.SparkSpec
import scala.jdk.CollectionConverters._

/** Tables 3, 4 and 8 on the full `BenchPlan`, rendered as `Main` renders
  * them, byte for byte against the `[tableN]` lines (header included) of
  * the committed `bench_output.txt`. Together with
  * `ExperimentsTranscriptionSpec` this checks code → artifact →
  * EXPERIMENTS.md for these three tables.
  */
class PlanTablesSpec extends SparkSpec {

  private def artifact(table: Int): Seq[String] =
    Files.readAllLines(Paths.get("bench_output.txt")).asScala.toSeq
      .filter(_.startsWith(s"[table$table] "))

  for (table <- Seq(3, 4, 8))
    test(s"Table $table on the full plan equals its bench_output.txt lines") {
      val got = Tables.lines(spark, table)
      val want = artifact(table)
      assert(want.nonEmpty)
      assert(got == want, got.mkString("\n", "\n", "\n"))
    }
}
