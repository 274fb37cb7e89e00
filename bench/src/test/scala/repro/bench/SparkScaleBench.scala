package repro.bench

import repro.SparkSpec
import repro.exp.SparkScaleExp

/** Distributed scale-out: the DataFrame/broadcast-TGM LES³ path vs a
  * distributed brute-force cross join on the full PMC-lite profile
  * (results are cross-checked for equality inside the experiment).
  */
class SparkScaleBench extends SparkSpec {

  test("Spark scale-out: broadcast-TGM pruning beats the cross join") {
    val rows = SparkScaleExp.run(spark)
    println(SparkScaleExp.render(rows))
    for (d <- rows.filter(_.query == "range").map(_.param).distinct) {
      val les3 = rows.find(r => r.method == "LES3-spark" && r.param == d).get
      val brute = rows.find(r => r.method == "Brute-spark" && r.param == d).get
      assert(les3.resultRows == brute.resultRows) // also verified inside run()
      assert(les3.wallMs < brute.wallMs,
        s"delta=$d: LES3 ${les3.wallMs}ms vs brute ${brute.wallMs}ms")
    }
    assert(rows.exists(_.query == "knn"))
  }
}
