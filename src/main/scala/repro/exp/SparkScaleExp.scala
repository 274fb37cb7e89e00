package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{SetOps, SparkSearch}
import repro.data.SetGen
import repro.embed.PTREmbedder
import repro.partition.L2P

import scala.util.Random

/** Distributed scale-out experiment (the reproduction band's
  * `distributed_dataflow` directive): LES³ as DataFrame operations —
  * L2P inference as a broadcast-model UDF, TGM built by DataFrame
  * aggregation, broadcast-TGM pruning + per-partition verification —
  * compared against a distributed brute-force cross join on PMC-lite.
  */
object SparkScaleExp {

  final case class Row(method: String, query: String, param: Double,
                       wallMs: Double, resultRows: Long)

  def run(spark: SparkSession, p: SetGen.Profile = SetGen.pmcLite,
          trainSample: Int = 20000, nGroups: Int = 256,
          deltas: Seq[Double] = Seq(0.9, 0.8), k: Int = 10,
          nQueries: Int = 300, pairs: Int = 15000, seed: Long = 151): Seq[Row] = {
    // Train the cascade on a driver-side sample, then assign the full
    // distributed dataset with the broadcast model.
    val rnd = new Random(seed)
    val sample = Array.fill(trainSample)(SetGen.generate(p, rnd.nextInt(p.nSets).toLong))
    val l2p = L2P.partition(sample, new PTREmbedder(p.nTokens),
      Harness.l2pConfig(sample.length, nGroups, pairs, restarts = 1))

    val data = SetGen.toDF(spark, p).cache()
    data.count() // materialize once; both methods read the cached data
    val grouped = SparkSearch.assignGroups(data, l2p.model).cache()
    grouped.count()
    val tgm = SparkSearch.buildTGM(grouped, l2p.model.nGroups)

    val queryArr: Array[(Long, Array[Int])] =
      Array.tabulate(nQueries)(i => (i.toLong, SetGen.generate(p, rnd.nextInt(p.nSets).toLong)))
    import spark.implicits._
    val queries = queryArr.toSeq.toDF("qid", "tokens")

    // Warm-up: exercise both physical plans once so JIT/codegen and the
    // generator caches don't land on whichever method runs first.
    val warm = queryArr.take(2).toSeq.toDF("qid", "tokens")
    SparkSearch.rangeSearch(grouped, warm, tgm, 0.8).collect()
    SparkSearch.bruteForceRange(data, warm, 0.8).collect()

    // Both answers are checked as exact (qid, sid, sim) rows: both sides
    // compute the similarity with simFromOverlap, so the values are
    // bit-identical.
    def answer(df: DataFrame): Seq[(Long, Long, Double)] =
      df.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).sorted.toSeq
    val rangeRows = deltas.flatMap { d =>
      val (les3, les3Ms) = Harness.timeMs(answer(SparkSearch.rangeSearch(grouped, queries, tgm, d)))
      val (brute, bruteMs) = Harness.timeMs(answer(SparkSearch.bruteForceRange(data, queries, d)))
      require(les3 == brute,
        s"distributed range mismatch at delta=$d: les3=${les3.length} rows, brute=${brute.length} rows")
      Seq(Row("LES3-spark", "range", d, les3Ms, les3.length),
          Row("Brute-spark", "range", d, bruteMs, brute.length))
    }

    val knnQueries = queryArr.take(50)
    val (knnHits, knnMs) = Harness.timeMs(SparkSearch.knnSearch(grouped, knnQueries, tgm, k))
    // Exactness check of every distributed kNN answer against a local scan,
    // as similarity multisets: the engine's similarities and SetOps.jaccard
    // are bit-identical (both simFromOverlap), so no rounding is needed.
    val localDb = SetGen.local(p)
    for ((qid, q) <- knnQueries) {
      val exact = localDb.map(s => SetOps.jaccard(q, s)).sorted.reverse.take(k).toSeq
      val got = knnHits(qid).map(_.sim).sorted.reverse.toSeq
      require(got == exact, s"distributed kNN mismatch for query $qid")
    }
    rangeRows :+ Row("LES3-spark", "knn", k, knnMs, knnHits.values.map(_.length.toLong).sum)
  }

  def render(rows: Seq[Row]): String =
    Fmt.table("Spark scale-out: distributed LES3 vs distributed brute force (PMC-lite)",
      Seq("method", "query", "param", "wall ms (batch)", "result rows"),
      rows.map(r => Seq(r.method, r.query, r.param.toString, Fmt.ms(r.wallMs),
                        r.resultRows.toString)))
}
