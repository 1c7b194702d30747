# Checks one peak of a `dsmrun -perf` line against a ceiling:
#   awk -v what=heap|rss -v max=MiB -f .github/peak.awk out.txt
# fails when the line is missing or its `peak <what> N MiB` is over max.
/ peak / {
	for (i = 1; i < NF; i++)
		if ($i == "peak" && $(i + 1) == what)
			peak = $(i + 2)
}
END {
	if (peak == "" || peak + 0 > max) {
		print "peak " what " " peak " MiB, over " max " MiB"
		exit 1
	}
}
